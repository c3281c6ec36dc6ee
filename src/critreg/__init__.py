"""Desk-scale verifiers for distortion machinery of interval actions.

`import critreg` loads none of its modules: import each by name.  The
modules each CLI kind loads are listed in README, Start-up.
"""

__version__ = "0.1.0"
