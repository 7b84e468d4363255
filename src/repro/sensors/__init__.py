"""Abstract-sensor substrate: specs, noise models, sensors, suites, presets."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "library": (
            "CAMERA_INTERVAL_WIDTH",
            "ENCODER_INTERVAL_WIDTH",
            "GPS_INTERVAL_WIDTH",
            "IMU_INTERVAL_WIDTH",
            "camera_spec",
            "encoder_spec",
            "gps_spec",
            "imu_spec",
            "landshark_specs",
            "make_sensor",
            "sensors_from_widths",
        ),
        "faults": ("FaultModel", "FaultySensor", "StuckAtFaultModel", "TransientFaultModel"),
        "noise": (
            "NoiseModel",
            "TruncatedGaussianNoise",
            "UniformNoise",
            "WorstCaseNoise",
            "ZeroNoise",
        ),
        "sensor": ("Reading", "Sensor"),
        "spec": ("EncoderSpec", "SensorSpec"),
        "suite": ("SensorSuite",),
    },
)
