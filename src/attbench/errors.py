"""The error a model raises for a field it rejects. Each range rule lives in
the model it guards; the scenario parser maps the field to its key path."""

__all__ = ["FieldError", "check_choice"]


class FieldError(ValueError):
    """A model rejected ``field`` (its own spelling) because of ``reason``."""

    def __init__(self, field, reason):
        super().__init__("%s: %s" % (field, reason))
        self.field, self.reason = field, reason


def check_choice(field, value, choices):
    """Raise a FieldError unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise FieldError(field, "must be one of %s, got %r" % (", ".join(choices), value))
