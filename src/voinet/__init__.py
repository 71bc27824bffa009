"""Value-of-information scoring and dissemination simulation for vehicular networks.

Every name is imported from the module that defines it (``voinet.ahp``,
``voinet.model``, ``voinet.sim``, ``voinet.config``, ``voinet.cli``,
``voinet.errors``).  The two config loaders are also bound here because the
benchmark worker calls them at package level.
"""

from .config import load_scenario, load_voi_config
