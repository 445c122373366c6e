"""Lehmer (contraharmonic-family) mean: evaluation, calculus, inflections.

The Lehmer mean of positive values x_1..x_n with positive weights w_i is

    L(p) = sum_i w_i x_i^p / sum_i w_i x_i^(p-1).

As a function of the exponent p it increases from min(x) to max(x); this
package evaluates it stably at any p, differentiates it twice, locates all
inflection points, bounds how many can exist, and searches for value sets
with several of them.
"""

from .calculus import (
    N3Slacks,
    fd_second_derivative,
    first_derivative,
    k_constant,
    log_moment,
    n3_inequalities,
    second_derivative,
    second_derivative_n2,
    second_derivative_n3,
    tilde_l,
    tilde_l_prime,
)
from .core import (
    Asymptotes,
    MeanSpec,
    asymptotes,
    lehmer,
    make_spec,
    merge_equal_values,
    scale_spec,
)
from .errors import (
    DegenerateError,
    DomainError,
    InvalidSpecError,
    LehmerError,
    NoInflectionError,
    RangeExhaustedError,
    UsageError,
)
from .inflection import (
    CountBound,
    InflectionReport,
    InflectionRoot,
    classify_n3_side,
    count_bound,
    find_inflections,
    weighted_n2_inflection,
)
from .search import (
    Cluster,
    LogUniform,
    SearchConfig,
    SearchHit,
    random_instance,
    search_multi_inflection,
)
from .verify import CheckResult, available_scopes, run_checks

__version__ = "0.1.0"

__all__ = [
    "Asymptotes",
    "CheckResult",
    "Cluster",
    "CountBound",
    "DegenerateError",
    "DomainError",
    "InflectionReport",
    "InflectionRoot",
    "InvalidSpecError",
    "LehmerError",
    "LogUniform",
    "MeanSpec",
    "N3Slacks",
    "NoInflectionError",
    "RangeExhaustedError",
    "SearchConfig",
    "SearchHit",
    "UsageError",
    "asymptotes",
    "available_scopes",
    "classify_n3_side",
    "count_bound",
    "fd_second_derivative",
    "find_inflections",
    "first_derivative",
    "k_constant",
    "lehmer",
    "log_moment",
    "make_spec",
    "merge_equal_values",
    "n3_inequalities",
    "random_instance",
    "run_checks",
    "scale_spec",
    "search_multi_inflection",
    "second_derivative",
    "second_derivative_n2",
    "second_derivative_n3",
    "tilde_l",
    "tilde_l_prime",
    "weighted_n2_inflection",
    "__version__",
]
