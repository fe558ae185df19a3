"""Learned approximate query processing.

Answer aggregated SQL-style queries on a table with a trained sequence
regressor instead of a scan: profile the data, sample an artificial
workload, label it with the exact executor, encode queries as binary
matrices and train an LSTM on the (query, result) pairs. The package is
plain numpy end to end.
"""

from . import synth
from .encoder import (
    TokenVocabulary,
    build_vocabulary,
    decode,
    encode,
    encode_workload,
)
from .errors import AqpError
from .executor import (
    LabelReport,
    execute_flat,
    execute_groupby,
    extract_member_combinations,
    label_workload,
)
from .metrics import (
    EvalReport,
    column_entropy,
    evaluate_predictions,
    input_tensor_variance,
    mean_entropy,
    measure_ql,
    measure_qt,
    nrmse,
    rmse,
)
from .nnet import LstmModel, ModelConfig, TrainReport
from .queries import (
    AggregationFunction,
    AggregationTarget,
    BetweenFilter,
    FlatQuery,
    GroupByQuery,
    InFilter,
    LabeledQuery,
)
from .querygen import (
    QueryTemplate,
    generate_workload,
    load_template,
    read_workload,
    split_indices,
    write_workload,
)
from .store import (
    AttributeSchema,
    ContinuousStats,
    Dataset,
    Kind,
    continuous_stats,
    dump_csv,
    dump_schema,
    load_csv,
    load_schema,
    make_schema,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
