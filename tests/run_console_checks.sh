#!/bin/bash
# Runs tests/console_checks.sh from a checkout with one command, without
# installing the package. A stand-in `artifact` script on PATH runs
#     exec -a artifact python3 -m artifact.cli "$@"
# with PYTHONPATH at the checkout's src/, and RUNNER_TEMP is a new
# temporary directory, removed afterwards. Exits with the checks' status.
#
# Usage: bash tests/run_console_checks.sh

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/bin" "$work/runner"
printf '#!/bin/bash\nexec -a artifact python3 -m artifact.cli "$@"\n' \
    > "$work/bin/artifact"
chmod +x "$work/bin/artifact"
PATH="$work/bin:$PATH" PYTHONPATH="$root/src" RUNNER_TEMP="$work/runner" \
    bash "$root/tests/console_checks.sh"
