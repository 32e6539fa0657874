"""Numerical laboratory for loss-of-derivatives corrector iterations.

The package provides periodic grid calculus (gridfield), concrete model
problems with tagged remainder classes (problem), the corrector-iteration
driver (iteration), the bounds and the check of a trace against them
(ledger), empirical verification tools (verify), and a config-driven
experiment CLI (cli).  Import those modules: the package namespace
re-exports nothing.
"""
