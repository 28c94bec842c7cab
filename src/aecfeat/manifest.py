"""Dataset manifests: CSV files with a fixed header
``path,label,domain,split,condition`` describing every wav segment."""

import csv
import os
from dataclasses import dataclass, field
from typing import List

from .errors import AecError

HEADER = ["path", "label", "domain", "split", "condition"]
DOMAINS = ("source", "target")
SPLITS = ("train", "eval")


@dataclass
class ManifestEntry:
    wav_path: str
    label: str
    domain: str
    split: str
    condition: str = "clean"


@dataclass
class Manifest:
    entries: List[ManifestEntry] = field(default_factory=list)

    def __len__(self):
        return len(self.entries)

    def select(self, domain, split=None):
        """The entries of `domain`, of `split` too if one is given."""
        return [e for e in self.entries if e.domain == domain
                and (split is None or e.split == split)]


def load_manifest(path):
    """Load and validate a manifest CSV; errors carry the offending line."""
    if not os.path.exists(path):
        raise AecError(f"no such manifest: {path}")
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise AecError(f"{path}: empty file")
        if [h.strip() for h in header] != HEADER:
            raise AecError(f"{path}:1: header must be {','.join(HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(HEADER):
                raise AecError(f"{path}:{lineno}: expected {len(HEADER)} fields, got {len(row)}")
            wav_path, label, domain, split, condition = [c.strip() for c in row]
            if not label:
                raise AecError(f"{path}:{lineno}: empty label")
            if domain not in DOMAINS:
                raise AecError(f"{path}:{lineno}: unknown domain {domain!r}")
            if split not in SPLITS:
                raise AecError(f"{path}:{lineno}: unknown split {split!r}")
            full = wav_path if os.path.isabs(wav_path) else os.path.join(base, wav_path)
            if not os.path.exists(full):
                raise AecError(f"{path}:{lineno}: no such wav: {full}")
            entries.append(ManifestEntry(full, label, domain, split, condition or "clean"))
    if not entries:
        raise AecError(f"{path}: no entries")
    man = Manifest(entries)
    seen_train = {e.wav_path for e in man.select("target", "train")}
    for e in man.select("target", "eval"):
        if e.wav_path in seen_train:
            raise AecError(f"{path}: {e.wav_path} appears in both target train and eval")
    return man


def save_manifest(manifest, path):
    """Write a manifest CSV with each wav path relative to the manifest's
    own directory, the base `load_manifest` resolves relative paths by."""
    base = os.path.realpath(os.path.dirname(os.path.abspath(path)))
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(HEADER)
        for e in manifest.entries:
            writer.writerow([os.path.relpath(os.path.realpath(e.wav_path), base),
                             e.label, e.domain, e.split, e.condition])
