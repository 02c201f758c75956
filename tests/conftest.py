"""Hypothesis profiles: ``--hypothesis-profile=ci`` prints the blob that
reproduces a failing example, for runs whose database is thrown away."""
from hypothesis import settings

settings.register_profile("ci", print_blob=True)
