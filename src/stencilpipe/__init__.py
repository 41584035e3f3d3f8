"""Pipelined temporal blocking for the 3D Jacobi stencil.

Shared-memory thread pipelines over cache-sized blocks, multi-layer halo
exchange for distributed runs, and the analytic bandwidth models that
predict when either pays off.
"""

from .grid import (CompressedGrid, FillPattern, GridDims, GridError, TwoGrid,
                   allocate, dump_field, extract_layers, inject_layers,
                   load_field)
from .kernel import sweep_naive, sweep_spatial_blocked
from .pipeline import (BlockSchedule, PipelineConfig, PipelineTimeout,
                       ScheduleError, audit_trace, build_schedule,
                       default_block_size, instrumented_run, may_proceed,
                       run_node_sweeps, trace_csv)
from .decomp import (Decomposition, DecompositionError, decompose,
                     exchange_halos, local_grid, outer_step, run_distributed)
from .transport import (Endpoint, LoopbackWorld, MessageHeader, TransportError,
                        decode_message, encode_message, spawn_world)
from .model import (HaloCost, MachineParams, NetworkParams, baseline_perf,
                    efficiency, multihalo_ratio, multihalo_time,
                    pipelined_speedup, team_block_time)
from .verify import Comparison, REL_TOL, compare, oracle, oracle_trajectory

__version__ = "0.1.0"
