"""Pointwise-adaptive robust regression.

Local M-estimators over nested neighbourhoods, selected per point by a
sequential test that compares each newly added ring of observations with all
earlier window estimates, with Monte-Carlo-calibrated critical values.
Includes a 1d benchmark harness and a 2d robust image denoiser.
"""

from .calibration import (CalibArtifact, CalibConfig, calibrate, load_artifact,
                          save_artifact, verify_calibration)
from .errors import CalibrationError, ValidationError
from .experiments import (METHODS, ExperimentSpec, median_moment_study,
                          run_benchmark, signal_smooth, signal_step, tail_study,
                          two_sample_study)
from .imaging import DenoiseConfig, Image, denoise_image, estimate_noise_scale
from .levels import (Levels, PairLevels, levels_asymptotic, levels_exact_mean,
                     levels_mc, normal_abs_moment, pair_levels_asymptotic,
                     pair_levels_exact_mean, pair_levels_mc,
                     simulate_window_estimates)
from .losses import (LossKind, betweenness_holds, locate, locate_rows,
                     window_estimates)
from .noise import (NoiseKind, RngStream, abs_diff_median, cdf, density,
                    quantile_point, sample_noise, sample_rows)
from .pgmio import read_grid, read_pgm, write_grid, write_pgm
from .selector import (CriticalValues, SelectionTrace, TestRecord, propagation_bound,
                       propagation_gap, select_lepski, select_lepski_batch,
                       select_ring, select_ring_batch)
from .windows import (WindowFamily, benchmark_counts, build_family_1d,
                      build_family_2d, default_disc_radii, equidistant_design)

__version__ = "0.1.0"
