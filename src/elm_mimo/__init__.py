"""Massive MIMO uplink simulation with ELM-style receivers.

The package simulates an impaired uplink (Saleh PA nonlinearity, biased
low-resolution ADCs, correlated time-varying channel), trains and runs
five receivers, and provides a Monte Carlo harness for SER experiments.
"""

from .core import (RlsState, real_composite, real_stack, ridge_solve,
                   rls_init, rls_step)
from .channel import (ChannelConfig, ChannelProcess, draw_process, realize,
                      steering_vector)
from .frontend import (QAM16, AdcConfig, Qam16, SalehParams, bias_quantize,
                       calibrate_adc, ideal_adc, pa_distort, quantize,
                       quantize_iq, transmit)
from .receivers import (BorrowedElmModel, RealImagWeights,
                        detect_borrowed_elm, detect_linear,
                        detect_natural_elm, elm_estimate, mmse_weights,
                        oselm_init, oselm_update, oselm_weights,
                        train_borrowed_elm, train_natural_elm,
                        train_zf_direct, zf_weights)
from .harness import (AdaptiveConfig, ConverterConfig, ExperimentConfig,
                      SerRecord, desk_config, load_config, paper_config,
                      run_adaptive, run_bias_ablation, run_ser_sweep,
                      write_csv)

__version__ = "0.1.0"
