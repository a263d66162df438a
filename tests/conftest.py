"""Hypothesis profiles of the test suite.

``--hypothesis-profile=explicit`` runs only the explicit ``@example`` cases
of each property; ``test_trainer.py`` runs some that way in child processes.
"""

from hypothesis import Phase, settings

settings.register_profile("explicit", phases=[Phase.explicit], database=None)
