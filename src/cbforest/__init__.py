"""cbforest: stacked gradient-boosting ensemble with calibrated output.

Two layers: a grid of randomly configured boosting models trained K-fold
over binary and/or continuous labels, and an elastic-net logistic layer
that weights their out-of-fold scores and calibrates the final probability.
Ships the rare-event evaluation suite (AUC-ROC/PRC/BED, EF@t, logloss,
reliability score) and a CLI (`cbforest train/predict/evaluate/synth`).
"""

from .config import ConfigError, RunConfig
from .data import (DataError, FoldAssignment, LabelMapping, SparseDataset,
                   binarize, load_csv, load_svmlight, stratified_kfold)
from .elastic_net import (ElasticNetModel, ElasticNetParams, fit_elastic_net,
                          predict_proba)
from .ensemble import (CbfModel, CvScore, Layer1Bundle, Layer1Record,
                       Layer2Data, Layer2Selection, RunResult, TrainingRecord,
                       assemble_md, layer1_cv, predict_cbf, run_cbf,
                       sample_hyperparams, sample_layer2_params, train_layer1,
                       train_layer2)
from .gbm import (DecisionTree, GbmModel, LinearDelta, LinearHyperParams,
                  TrainingError, TrainingLog, TreeHyperParams,
                  build_linear_delta, build_tree, grad_hess, predict_gbm,
                  train_gbm)
from .metrics import (MetricError, MetricSpec, ReliabilityBins, auc_bed,
                      auc_prc, auc_roc, enrichment_factor, logloss,
                      reliability_bins, reliability_score)
from .persistence import PersistenceError, load_archive, save_archive
from .synth import make_synthetic, write_synthetic

__version__ = "0.1.0"
