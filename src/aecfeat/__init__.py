"""Transfer-learned DNN feature extraction for acoustic event
classification: DSP frontend, dense-network training, network surgery and
filter tapping, DCT/PCA reduction, GMM/SVM/DNN back ends, an end-to-end
pipeline, and `cross_validate(cfg, taps, labels, k)`, its SVM grid search."""

from .audio import (
    AudioSegment,
    convolve_rir,
    decay_envelope,
    mix_noise,
    read_wav,
    synth_rir,
    write_wav,
)
from .classifiers import (
    GmmModel,
    SvmModel,
    classify_segment,
    gmm_fit,
    svm_fit,
)
from .frontend import (
    FeatureMatrix,
    FrontendConfig,
    NormStats,
    apply_norm,
    fit_norm_stats,
    frame_signal,
    make_frontend_features,
    splice,
    splice_index,
)
from .manifest import Manifest, load_manifest, save_manifest
from .network import (
    Network,
    TrainConfig,
    TrainReport,
    forward,
    grad,
    init_mlp,
    sgd_step,
    train,
)
from .pipeline import RunConfig, cross_validate, run_pipeline
from .prepare import prepare_conditions, prepare_source
from .report import EvalReport, render_report, render_table
from .serialize import load_model, save_model
from .transfer import (
    adapt,
    build_filter,
    extract,
    strip_output,
)
from .transforms import DctSpec, PcaModel, dct_apply, pca_apply, pca_fit

__version__ = "0.1.0"
