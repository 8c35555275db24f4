"""Coinversion LLT polynomials: tableau and vertex-model engines, exact
polynomial algebra, and machine verification of their identities."""

from .algebra import LaurentPoly, VarSet
from .shapes import (
    SkewShapeTuple,
    column_range,
    complement,
    d_stat,
    dtilde_stat,
    inv_stat,
    m_bruteforce,
    m_formula,
    n_stat,
    rotate,
)
from .tableaux import (
    TableauTuple,
    complement_bijection,
    enumerate_ssyt,
    hl_modified,
    hl_transformed,
    llt_coinv,
    llt_inv,
)
from .lattice import (
    LatticeConfig,
    LatticeSpec,
    build_box_lattice,
    build_lattice,
    config_to_ssyt,
    enumerate_configs,
    gray_rows,
    partition_function,
    rotate_config,
    ssyt_to_config,
)
from .identities import llt
from .yangbaxter import (
    ef_weight,
    l_recursive,
    lstar_ybe_check,
    r_recursive,
    r_weight,
    ybe_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
