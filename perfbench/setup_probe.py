"""Set-up as a user pays it: import ddossim and resolve a workload's configs.

run.py starts this in fresh interpreters and times each one from start to exit.
"""

import sys

from workloads import WORKLOADS, import_ddossim, resolve

import_ddossim()
resolve(WORKLOADS[sys.argv[1]])
