"""Nonlocal p-biharmonic evolution with Dirichlet volume constraints.

Implicit Rothe stepping via per-step energy minimization, kernel rescaling
with second-moment normalization, a clamped finite-difference reference
solver, and the studies that check energy dissipation, large-time decay, and
the nonlocal-to-local limit.
"""

__version__ = "0.1.0"

from .grid import (
    DomainSpec,
    Field,
    inner_product,
    lp_norm,
    make_domain,
    zero_extend,
)
from .kernel import (
    Kernel,
    Stencil,
    discretize,
    get_kernel,
)
from .nlop import NonlocalOperator
from .stepper import (
    InnerSolveFailed,
    StepperConfig,
    Trajectory,
    evolve,
    trajectory_to_csv,
)
from .localref import LocalOperator, local_evolve, weak_residual
from .analysis import (
    DecayFit,
    DecayFitDegenerate,
    StudyReport,
    consistency_study,
    contraction_study,
    decay_fit,
    default_bump,
    energy_audit,
    nonlocal_to_local_study,
    poincare_constant,
)

# The CLI names load on first use (PEP 562): importing ``cli`` here would put
# it in sys.modules before ``python -m nlbiharm.cli`` runs it, and runpy
# warns about that.
_CLI_NAMES = ("ConfigError", "parse_config", "run", "write_pgm")


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
