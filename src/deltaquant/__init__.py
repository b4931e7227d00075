"""Weight-only quantization toolkit driven by fine-tuning weight updates.

Pipeline: compute per-weight update deltas between two checkpoints, map
them to per-channel importance scores (protecting the smallest and largest
updates), search a per-channel scaling exponent that minimizes quantization
loss on calibration activations, and emit packed 3/4-bit artifacts with
optional mixed-precision channel protection. A built-in toy MLP trainer
makes the whole pipeline runnable end to end at desk scale.
"""

from .container import (
    CompatibilityError,
    ContainerError,
    TensorMap,
    check_compatible,
    load_container,
    save_container,
)
from .evaluate import (
    AblationRow,
    EvalReport,
    ablate_signals,
    ablation_csv,
    curve_csv,
    layer_report,
    pseudo_ft_curve,
)
from .quant import (
    QuantConfig,
    QuantizedTensor,
    artifact_from_map,
    artifact_to_map,
    dequantize,
    pack_codes,
    protected_prefix,
    protection_order,
    rtn_quantize,
    unpack_codes,
)
from .search import (
    ModuleLoss,
    SearchConfig,
    SearchResult,
    quant_loss,
    quantize_model,
    search_scale,
)
from .signals import (
    SIGNALS,
    DegenerateDeltasError,
    DeltaStats,
    MappingConfig,
    compute_delta,
    global_delta_stats,
    importance_all,
    importances,
    importances_from_map,
    importances_to_map,
)
from .toy import (
    CalibrationSet,
    LinearLayer,
    ToyModel,
    TrainConfig,
    TrainingDivergedError,
    checkpoint_map,
    forward,
    gradients,
    init_model,
    model_from_map,
    train,
)

__version__ = "0.1.0"
