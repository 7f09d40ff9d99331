"""Expected-utility maximization and utility-based pricing on scenario trees."""

__version__ = "0.1.0"

from .errors import (AssumptionFailError, AugmentInfeasibleError,
                     BracketFailError, CapExceededError, DimensionError,
                     DomainError, EvaluationOverflowError, GapDetectedError,
                     InfeasibleEntropyError, InfiniteEntropyError,
                     InvalidTreeError, NoMartingaleMeasureError,
                     NonconvergedError, NoPrimalOptimizerError, ParseError,
                     NotExponentialError, ReplicationGapError, TreedualError,
                     ValueAtSupremumError)
from .market import (MarketTree, RandomVariable, leaf_values, load_market,
                     market_from_dict, market_to_dict, save_market)
from .utility import (CertificationReport, UtilityPair, certify_assumptions,
                      evaluate, exponential_utility, parse_utility_spec,
                      two_power_utility)
from .geometry import (build_constraints, find_equivalent_mm,
                       is_martingale_measure, relative_entropy, vertex_enumerate)
from .dual import (CurvePoint, CurveReport, DualSolution, dual_derivative,
                   dual_value_curve, solve_dual, solve_dual_fixed_mass)
from .recovery import (DynamicDualNode, PrimalSolution, SnellReport,
                       SupermartingaleReport, dynamic_dual, recover,
                       snell_envelope_exponential, verify_supermartingale)
from .pricing import (MubppReport, PriceReport, SensitivityReport,
                      VolumeCurveReport, average_price_curve,
                      certainty_equivalent, check_mubpp, davis_price,
                      endowment_sensitivity, entropic_penalty,
                      indifference_price, indifference_price_lipschitz_bound,
                      optimal_measure_price_process, price_bounds,
                      price_report, price_via_penalty)
from .oracle import (OracleReport, brute_force_dual, brute_force_primal,
                     check_duality_gap, polytope_dimension,
                     strategy_dimension)
from .checks import CheckResult, run_battery
