"""Exception hierarchy contract."""

import inspect
import pickle

import pytest

from repro import errors


@pytest.mark.parametrize(
    "exc",
    [
        errors.ConfigurationError,
        errors.ScheduleError,
        errors.InstrumentError,
        errors.MeasurementError,
        errors.CounterOverflowError,
        errors.FittingError,
        errors.SimulationError,
    ],
)
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, errors.ReproError)


def test_schedule_error_is_configuration_error():
    # Schedules are configuration; a single except clause should catch both.
    assert issubclass(errors.ScheduleError, errors.ConfigurationError)


def test_counter_overflow_is_measurement_error():
    assert issubclass(errors.CounterOverflowError, errors.MeasurementError)


def test_catchable_as_repro_error():
    with pytest.raises(errors.ReproError):
        raise errors.FittingError("did not converge")


def test_every_error_survives_pickling_with_its_attributes():
    # Errors cross process boundaries when a fleet shard or sweep cell
    # reports back from its child process.
    built = {
        errors.FleetDropoutError: errors.FleetDropoutError(
            {3: errors.ChipDropoutError("gone")}, values=[1.5, 2.5]
        ),
        errors.PhysicsViolationError: errors.PhysicsViolationError(
            "occupancy 1.2", contract="bti.occupancy", bundle_path="dump/bundle.json"
        ),
    }
    classes = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.ReproError)
    ]
    assert errors.FleetDropoutError in classes and len(classes) > 10
    for cls in classes:
        error = built.get(cls) or cls(f"{cls.__name__} message")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls
        assert str(copy) == str(error)
        for name in ("contract", "bundle_path", "values"):
            assert getattr(copy, name, None) == getattr(error, name, None), (cls, name)
        if hasattr(error, "errors"):
            assert {k: (type(v), str(v)) for k, v in copy.errors.items()} == {
                k: (type(v), str(v)) for k, v in error.errors.items()
            }
