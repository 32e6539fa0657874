"""Numerical laboratory for loss-of-derivatives corrector iterations.

The package provides periodic grid calculus (gridfield), concrete model
problems with tagged remainder classes (problem), the corrector-iteration
driver (iteration), the bounds and the check of a trace against them
(ledger), empirical verification tools (verify), and a config-driven
experiment CLI (cli).
"""

from .gridfield import (
    GridFunction,
    IncompatibleGrids,
    NormVector,
    ResolutionError,
    axpy,
    ck_norm,
    derivative,
    mollify,
    oscillator,
)
from .iteration import (
    DerivativeBudgetExhausted,
    IterationState,
    IterationTrace,
    initial_step,
    run,
    step,
)
from .ledger import ConstantSet, check_hypotheses, propagate, threshold
from .problem import (
    BoundClass,
    DomainEscape,
    IterationParams,
    ProblemInstance,
    RemainderSpec,
    RemainderTerm,
    make_scalar_toy,
    make_two_component_toy,
    make_varying_toy,
    with_self_interaction,
)
from .verify import (
    BoundReport,
    DecayFit,
    InsufficientSteps,
    audit_classes,
    demonstrate_r5_failure,
    fit_decay,
    oracle_norm,
    verify_remainder_class,
)

__version__ = "0.1.0"
