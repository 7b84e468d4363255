"""Abstract-sensor substrate: specs, noise models, sensors, suites, presets."""

from repro._lazy import lazy_exports

__all__ = [
    "SensorSpec",
    "EncoderSpec",
    "Sensor",
    "Reading",
    "SensorSuite",
    "FaultModel",
    "TransientFaultModel",
    "StuckAtFaultModel",
    "FaultySensor",
    "NoiseModel",
    "ZeroNoise",
    "UniformNoise",
    "TruncatedGaussianNoise",
    "WorstCaseNoise",
    "GPS_INTERVAL_WIDTH",
    "CAMERA_INTERVAL_WIDTH",
    "ENCODER_INTERVAL_WIDTH",
    "IMU_INTERVAL_WIDTH",
    "gps_spec",
    "camera_spec",
    "encoder_spec",
    "imu_spec",
    "landshark_specs",
    "make_sensor",
    "sensors_from_widths",
]

__getattr__, __dir__ = lazy_exports(
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
