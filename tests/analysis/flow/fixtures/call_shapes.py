"""Call-graph shapes for the flow tests (parsed, never run).

A nested def, a method reached by bare name on an unknown receiver, and
a module-level object: the constructs the call graph and the binding
tables must index.  Nothing here touches an RNG, so the flow pass finds
nothing in this module.
"""


class DataLog:
    """A class whose method the graph indexes by bare name."""

    def merge(self, other):
        """Reached from ``collect`` through ``log.merge(...)``."""


SHARED_LOG = DataLog()


def collect(items, log):
    """Calls a nested helper and a method on an untyped receiver."""
    count = 0

    def note(item):
        """Nested def: gets an implicit edge from ``collect``."""
        return item

    for item in items:
        log.merge(note(item))
        count += 1
    return count


def report(items):
    """Calls ``collect``; nothing ``collect`` reaches calls back here."""
    return collect(items, SHARED_LOG)
