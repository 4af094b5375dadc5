"""Safe quadcopter flight: convex B-spline planning, barrier-filtered tracking.

The package splits into layers that mirror the pipeline:

- splines: clamped uniform B-splines, derivative control points, snap Gram.
- flatness: the batched zero-yaw map from flat outputs to thrust, attitude
  and body rates, and the virtual input mu to thrust and attitude.
- socp: a small second-order cone program container with a conic solver.
- planner: compiles mission constraints onto spline coefficients and solves.
- tracker: barrier-based safety filter around a nominal controller.
- simverify: double-integrator closed loop and dense constraint verification.
- documents: the one checker of scenario files and plan documents against
  their schemas.
- cli: scenario-file driven entry points (plan / track / verify / export).
"""

from .splines import (
    KnotVector,
    SplineCurve,
    clamped_uniform_knots,
    derivative_control_points,
    snap_gram,
)

__all__ = [
    "KnotVector",
    "SplineCurve",
    "clamped_uniform_knots",
    "derivative_control_points",
    "snap_gram",
]

__version__ = "0.1.0"
