"""Secret-key capacity and omnivocality analysis for multiterminal sources.

The modules are the API: import each name from the module that defines it,
for example ``from skomni.capacity import sk_capacity``.  Importing one
module loads only the modules it depends on.
"""

__version__ = "0.1.0"
