"""Exact operator ladders on special-function kernels, and the isolated
spectrum of the two-photon Rabi model built on top of them.

The package constructs six families of second-order operators that map a
finite span of special-function products into itself, verifies the mapping
coefficients and the closure relations of each raising/lowering pair
exactly over the rationals (with surds where needed), and uses the third
family to solve for the frequencies at which the two-photon Rabi
Hamiltonian has elementary eigenstates, cross-checked by an independent
truncated-Fock eigenvalue search.

The package holds only `__version__`, so `import qes` loads no module;
names are imported from the modules (`qes.families`, `qes.rabi`, ...).
"""

__version__ = "0.1.0"
