import numpy as np
import pytest

from aecfeat.audio import (
    AudioSegment,
    convolve_rir,
    decay_envelope,
    mix_noise,
    read_wav,
    synth_rir,
    wav_samples,
    write_wav,
)
from aecfeat.errors import AecError


def seg(samples):
    return AudioSegment(np.asarray(samples, dtype=np.float64))


def measured_snr_db(mixed, clean):
    noise_part = mixed.samples - clean.samples
    return 10.0 * np.log10(np.mean(clean.samples ** 2) / np.mean(noise_part ** 2))


class TestSegment:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(AecError, match="non-finite samples"):
            seg([0.0, bad, 0.5])


class TestWavIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        original = seg(rng.uniform(-0.9, 0.9, 16000))
        path = tmp_path / "a.wav"
        write_wav(path, original)
        loaded = read_wav(path)
        # 16-bit quantization: half an LSB of 1/32768
        assert np.max(np.abs(loaded.samples - original.samples)) <= 1.0 / 32768

    def test_rejects_wrong_rate(self, tmp_path):
        import wave

        path = tmp_path / "8k.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(8000)
            f.writeframes(b"\x00\x00" * 100)
        with pytest.raises(AecError, match="sample rate 8000"):
            read_wav(path)

    def test_rejects_stereo(self, tmp_path):
        import wave

        path = tmp_path / "st.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(16000)
            f.writeframes(b"\x00\x00\x00\x00" * 100)
        with pytest.raises(AecError, match="2 channels, need mono"):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(AecError, match="no such file"):
            read_wav(tmp_path / "nope.wav")
        with pytest.raises(AecError, match="no such file"):
            wav_samples(tmp_path / "nope.wav")

    def test_header_count_equals_samples_read(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, seg(np.zeros(4321)))
        assert wav_samples(path) == len(read_wav(path)) == 4321

    def test_header_count_checks_the_format(self, tmp_path):
        import wave

        path = tmp_path / "8k.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(8000)
            f.writeframes(b"\x00\x00" * 100)
        with pytest.raises(AecError, match="sample rate 8000"):
            wav_samples(path)

    # 4,000 samples are 8,000 data bytes; an odd cut leaves half a sample
    @pytest.mark.parametrize("cut, held", [(3000, 2500), (3001, 2499)])
    def test_rejects_truncated_data(self, tmp_path, cut, held):
        path = tmp_path / "cut.wav"
        write_wav(path, seg(np.zeros(4000)))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(AecError, match=rf"cut\.wav: truncated: its header "
                                           rf"declares 4000 samples but its "
                                           rf"data holds {held}$"):
            read_wav(path)
        # the header alone still declares the full count
        assert wav_samples(path) == 4000


class TestMixNoise:
    def test_equal_power_zero_snr_gives_unit_gain(self):
        rng = np.random.default_rng(1)
        s = seg(0.1 * np.sign(rng.standard_normal(1000)))
        n = seg(0.1 * np.sign(rng.standard_normal(1000)))
        mixed = mix_noise(s, n, 0.0, seed=0)
        added = mixed.samples - s.samples
        assert np.allclose(np.abs(added), 0.1)

    def test_gain_formula(self):
        # P_s=1 is not reachable within [-1,1] wavs, so scale down 10x:
        # P_s=0.01, P_n=0.0001 keeps the same power ratio and alpha.
        s = seg(0.1 * np.ones(4000))
        n = seg(0.01 * np.ones(4000))
        mixed = mix_noise(s, n, 10.0, seed=0)
        alpha = (mixed.samples - s.samples)[0] / 0.01
        assert alpha == pytest.approx(np.sqrt(10.0), abs=1e-9)

    @pytest.mark.parametrize("snr", [0.0, 5.0, 10.0, 15.0])
    def test_measured_snr_matches_request(self, snr):
        rng = np.random.default_rng(int(snr) + 7)
        for trial in range(5):
            s = seg(0.05 * rng.standard_normal(8000))
            n = seg(0.05 * rng.standard_normal(12000))
            mixed = mix_noise(s, n, snr, seed=trial)
            assert measured_snr_db(mixed, s) == pytest.approx(snr, abs=0.01)

    def test_silent_noise(self):
        s = seg(0.1 * np.ones(100))
        with pytest.raises(AecError, match="noise crop power is zero"):
            mix_noise(s, seg(np.zeros(100)), 10.0)

    def test_silent_signal(self):
        n = seg(0.1 * np.ones(100))
        with pytest.raises(AecError, match="^signal power is zero"):
            mix_noise(seg(np.zeros(100)), n, 10.0)

    def test_noise_too_short(self):
        with pytest.raises(AecError, match=r"noise \(100 samples\) shorter than signal \(200\)"):
            mix_noise(seg(0.1 * np.ones(200)), seg(0.1 * np.ones(100)), 10.0)

    def test_clipping_is_counted(self, caplog):
        import logging

        s = seg(0.9 * np.ones(100))
        n = seg(0.9 * np.ones(100))
        with caplog.at_level(logging.WARNING, logger="aecfeat.audio"):
            mixed = mix_noise(s, n, 0.0, seed=0)
        assert np.max(np.abs(mixed.samples)) <= 1.0
        assert any("clipped" in r.message for r in caplog.records)


class TestRir:
    def test_impulse_identity(self):
        rng = np.random.default_rng(2)
        s = seg(0.5 * np.tanh(rng.standard_normal(500)))
        out = convolve_rir(s, [1.0])
        assert np.array_equal(out.samples, s.samples)

    def test_delayed_impulse_shifts(self):
        s = seg(np.linspace(-0.5, 0.5, 100))
        rir = np.zeros(11)
        rir[10] = 1.0
        out = convolve_rir(s, rir)
        assert np.allclose(out.samples[10:], s.samples[:-10])
        assert np.allclose(out.samples[:10], 0.0)

    def test_empty_rir(self):
        with pytest.raises(AecError, match="impulse response is empty"):
            convolve_rir(seg(np.ones(10)), [])

    def test_decay_envelope_hits_minus_60db_at_rt60(self):
        env = decay_envelope(0.7, 11201)
        db = 20.0 * np.log10(env[11200] / env[0])
        assert db == pytest.approx(-60.0, abs=0.5)

    def test_synth_rir_envelope_calibration(self):
        # the synthetic response is seeded white noise times the decay
        # envelope; dividing the regenerated noise back out recovers it
        rt60, n = 0.7, 16000
        rir = synth_rir(rt60_s=rt60, length_s=1.0, seed=5)
        noise = np.random.default_rng(5).standard_normal(n)
        env = rir / noise
        db = 20.0 * np.log10(env[11200] / env[0])
        assert db == pytest.approx(-60.0, abs=0.5)

    def test_synth_rir_deterministic(self):
        assert np.array_equal(synth_rir(seed=3), synth_rir(seed=3))
