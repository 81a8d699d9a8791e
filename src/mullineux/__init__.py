"""Mullineux involution on e-regular partitions, three independent ways,
with the charged-multipartition and multisegment machinery around it."""

from .charges import (
    fundamental_representative,
    is_fundamental,
    same_orbit,
    sharp_very_dominant,
    transpose_charge,
    very_dominant_representative,
)
from .core import (
    conjugate,
    enumerate_e_regular,
    enumerate_partitions,
    is_e_regular,
    is_strict_e_core,
    rank,
    remove_first_column,
)
from .crystal import (
    blockwise_lift,
    blockwise_lower,
    enumerate_phi,
    flotw_check,
    membership,
    psi,
)
from .errors import (
    InputError,
    InternalError,
    MullineuxError,
    NoPathError,
)
from .involution import (
    ak_mullineux,
    im_sharp,
    kleshchev_oracle,
    mullineux_crystal,
    xu,
    xu_strip,
)
from .multisegments import (
    canonical,
    chi,
    is_aperiodic,
)
from .theta import theta, theta_inverse, theta_l2

__all__ = [name for name in dir() if not name.startswith("_")]
