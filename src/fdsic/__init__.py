"""fdsic: full-duplex transceiver impairment simulation and digital
self-interference cancellation.

The package simulates the analog front end of a full-duplex node at
complex baseband (per-rail DAC distortion, mixer IQ imbalance, oscillator
phase noise, amplifier compression, SI channel, thermal noise, quantizing
receiver) and provides a family of least-squares cancellers that
reconstruct and subtract the self-interference from the received signal.
"""

from .analysis import (
    BudgetInput,
    BudgetReport,
    HarmonicCheck,
    HarmonicPrediction,
    predict_harmonics,
    suppression_budget,
    verify_harmonics,
)
from .cancellers import (
    DEFAULT_SPECS,
    BasisSignal,
    CancellerMethod,
    CancellerSpec,
    LsFit,
    SuppressionReport,
    build_basis,
    run_sweep,
)
from .impairments import (
    ChannelAndReceiver,
    DacNonlinearity,
    ImpairmentConfig,
    IqImbalance,
    PaNonlinearity,
    PhaseNoiseSpec,
    ReceiverDiagnostics,
    apply_dac,
    apply_iq,
    apply_pa,
    apply_phase_noise,
    load_config,
    receive,
    save_config,
    simulate_received,
    thermal_noise,
    transmit_front_end,
)
from .presets import load_preset
from .signals import (
    ComplexBasebandSignal,
    fir_convolve,
    gen_ofdm_frames,
    gen_tone,
    read_iq,
    write_iq,
)
from .spectral import Spectrum, measure_line_db, skirt_peak_dbc, spectrum

__version__ = "0.1.0"
