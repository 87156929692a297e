"""Every package error survives pickling, as it must to cross a process pool."""

import pickle

from recselect import errors
from recselect.errors import NonFiniteScoresError, RecselectError, RowParseError, WorkerExitError

# Constructor arguments of the errors whose ``__init__`` takes fields, not a message.
FIELDS = {RowParseError: (7, "rating 'x' is not numeric"), NonFiniteScoresError: ("ease", "u01"),
          WorkerExitError: (1, -9)}


def test_every_error_round_trips_with_type_message_and_attributes():
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, RecselectError)]
    assert set(FIELDS) < set(classes)
    for cls in classes:
        error = cls(*FIELDS.get(cls, ("something went wrong",)))
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls
        assert str(copy) == str(error) and copy.args == error.args
        assert vars(copy) == vars(error)
