"""Structure-aware stride state-space toolkit for 2D-to-3D pose lifting."""

from .errors import (ChecksumError, ConfigError, CorruptionError,
                     DegeneracyError, DimensionError, DomainError, FormatError,
                     GraphConsumedError, NumericError, SasMambaError,
                     UnsupportedOpError, VersionError)
from .fileio import load_ckpt, read_keypoints, save_ckpt, write_keypoints
from .metrics import (SimilarityTransform, mpjpe_p1, mpjpe_p2, mpjve_metric,
                      procrustes_align)
from .model import (Model, ModelConfig, count_macs, count_params, forward,
                    init_model)
from .sas import (SaConvParams, SasLayerParams, StreamSet, StrideConfig,
                  four_stream_scan, predict_offsets, sa_conv, sas_ssm_layer,
                  stride_sample, stride_scan)
from .ssm import (SelectiveSsmParams, conv_apply, discretize, selective_scan,
                  ssm_kernel)
from .tensor import (LinearParams, NormParams, Tensor, checked_mode,
                     finite_diff_check, layer_norm, linear)
from .training import (LossWeights, OptimState, SyntheticDataset, gen_synthetic,
                       lr_at, mpjve, optim_step, tc_loss, total_loss, train,
                       wmpjpe)

__version__ = "0.1.0"
