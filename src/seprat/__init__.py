"""seprat: compile 3SAT into priced consumption data and test separability.

The modules are the API: `reduction` turns a 3SAT formula into priced
bundles, exactly; `rpcore` builds the evaluation grid and preference graph;
`septest` decides separable rationalizability and checks the witness.  The
package root holds only `__version__`.
"""

__version__ = "0.1.0"
