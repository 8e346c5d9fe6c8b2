"""Exact engine for a two-coloured spider calculus of qubit linear maps,
its equational theory, canonical normal forms, and the anyonic d-level
generalisation.

The interesting entry points:

* :mod:`zwcalc.ring` -- exact coefficient rings (Z, Z/n, Gaussian
  rationals) and the approximate complex ring;
* :mod:`zwcalc.term` -- diagrams as terms, with a concrete syntax;
* :mod:`zwcalc.semantics` -- sparse interpretation of terms;
* :mod:`zwcalc.normalform` -- canonical forms and syntactic
  normalization, the constructive side of completeness;
* :mod:`zwcalc.rules` -- the full axiom/derived-rule catalogue and the
  one checker that judges two maps equal or names a witness entry;
* :mod:`zwcalc.qudit` -- q-arithmetic and the anyonic generators.
"""

from .ring import (
    C,
    GaussianRational,
    Qi,
    RingDescriptor,
    RingElement,
    RingError,
    RingMismatchError,
    UnsupportedOperationError,
    Z,
    Zn,
    conjugate,
    ring_arith,
    ring_equal,
)
from .term import (
    CAP,
    CUP,
    ID,
    SWAP,
    X,
    XINV,
    ArityError,
    Generator,
    ParseError,
    Term,
    adjoint,
    ket,
    par,
    parse,
    render,
    seq,
    wspider,
    zspider,
)
from .semantics import SparseMap, dagger, interpret, map_equal, parity_class
from .normalform import (
    MapNormalForm,
    NormalForm,
    PreNormalForm,
    canonicalize,
    generator_nf,
    nf_negate,
    nf_of_state,
    nf_tensor,
    nf_to_term,
    nf_trace,
    normalize,
)
from .rules import (
    RuleBounds,
    RuleInstance,
    RuleReport,
    axiom_instances,
    check_maps,
    check_rule,
    derived_instances,
)
from .qudit import (
    QBinomialTable,
    QParams,
    check_bialgebra,
    check_commutation,
    check_q_vandermonde,
    q_binom,
    q_factorial,
    q_int,
    qudit_universal_nf,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
