"""Experiment runners reproducing every figure of the paper's evaluation.

:mod:`repro.experiments.runner` runs one rack under one workload and
returns metrics; :mod:`repro.experiments.figures` maps each paper figure
to a parameter sweep over runner calls; :mod:`repro.experiments.report`
renders results as the text tables recorded in EXPERIMENTS.md.

The package re-exports nothing, so importing it loads none of its
modules (no process pool for a run that needs none): import from the
defining module, or the public names from :mod:`repro.api`.
"""
