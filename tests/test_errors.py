"""Every exception of `mathverify.errors` survives pickling, as it must to
leave a ``--jobs`` worker: the same type, message and attributes."""

import pickle

import pytest

from mathverify import errors

# Constructor arguments of the classes that build their own message.
_ARGS = {
    errors.IllegalCharacter: ("§", 7),
    errors.NumericallyUnsupported: ("foo_fn",),
}


def _exception_classes():
    return [c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, BaseException)
            and c.__module__ == errors.__name__]


def test_the_module_defines_the_classes_with_arguments():
    assert set(_ARGS) <= set(_exception_classes())
    assert len(_exception_classes()) > 20


@pytest.mark.parametrize("cls", _exception_classes(), ids=lambda c: c.__name__)
def test_every_error_survives_pickling(cls):
    exc = cls(*_ARGS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
