"""Quantile trajectories for time-dependent probability densities.

The package traces quantile positions x_P(t), defined through the upper
tail P = integral of rho from x_P to infinity, for free Gaussian packets,
packets with uniform probability loss, packets tunneling through a square
barrier, and 3D Gaussian packets.  Trajectories come from two routes that
must agree: direct inversion of the cumulative tail, and integration of
the velocity field j/rho.  The tunneling half verifies that a tunneled
quantile never leads its free twin beyond the barrier.
"""

from .errors import (
    DegenerateK,
    GridTooCoarse,
    InvalidRange,
    NoSignChange,
    NonConvergence,
    NormBelowP,
    QuantracerError,
    StepUnderflow,
    VelocitySingular,
)
from .numerics import DEFAULT_TOL, KGrid, Tolerances, build_kgrid
from .quantile import (
    FlowMap3D,
    QuantileTrajectory,
    Termination,
    probability_in_volume,
    quantile_position,
    quantile_velocity,
    sphere_seeds,
    trace_flowmap_3d,
    trace_trajectory_cdf,
    trace_trajectory_ode,
)
from .tunneling import (
    DeltaPReport,
    DeltaPTerms,
    RetardationVerdict,
    default_delta_p_grid,
    delta_p_decomposed,
    delta_p_direct,
    delta_p_report,
    packet_transmission_probability,
    retardation_scan,
)
from .wavepacket import (
    DEFAULT_BARRIER,
    DEFAULT_LOSS_RATE,
    DEFAULT_PACKET,
    DEFAULT_PACKET_3D,
    BarrierSpec,
    DissipativeGaussianModel,
    FreeGaussianModel,
    Gaussian3DModel,
    Gaussian3DParams,
    GaussianPacketParams,
    PacketModel,
    ScatteringMode,
    SpectralFunction,
    SpectralPacketModel,
    recommended_node_count,
    scattering_mode,
    spectral_free_model,
    spectral_setup,
    tunneling_packet_model,
)

__version__ = "0.1.0"
