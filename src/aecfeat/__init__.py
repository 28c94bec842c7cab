"""Transfer-learned DNN feature extraction for acoustic event
classification: DSP frontend, dense-network training, network surgery and
filter tapping, DCT/PCA reduction, GMM/SVM/DNN back ends, and an
end-to-end pipeline."""

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
    SegmentDecision,
    SvmModel,
    classify_segment,
    dnn_classifier_fit,
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
)
from .manifest import Manifest, load_manifest, save_manifest
from .network import (
    LayerSpec,
    Network,
    TrainConfig,
    TrainReport,
    forward,
    grad,
    init_network,
    sgd_step,
    train,
)
from .pipeline import RunConfig, cross_validate, run_pipeline
from .prepare import prepare_conditions, prepare_source
from .report import EvalReport, render_report, render_table
from .serialize import load_model, save_model
from .transfer import (
    DnnFilter,
    SourceModel,
    adapt,
    append_adaptation,
    build_filter,
    extract,
    strip_output,
)
from .transforms import DctSpec, PcaModel, dct_apply, pca_apply, pca_fit

__version__ = "0.1.0"
