"""Job-kind parameter tables as verb flags: one declaration for the CLI and the service.

A verb that shares a job kind's name (``simulate``, ``fig7``, ``arena``,
...) declares its flags from that kind's table in
:mod:`repro.service.workers`, so the verb and a queued service job take
the same parameters with the same checks.
"""

from __future__ import annotations

import argparse
from functools import partial

from repro.exceptions import ServiceError
from repro.service.workers import job_kind, validate_job


def add_kind_flags(
    parser: argparse.ArgumentParser, kind: str, *, repeat: str | None = None
) -> None:
    """Declare job kind ``kind``'s parameter table as this verb's flags.

    Each parameter becomes ``--name-with-dashes`` (or the table's own
    spelling); list parameters take several values, choices become
    argparse choices, and every token is converted and checked by the
    table itself.  ``repeat`` names a scalar parameter that takes
    several values here: the verb runs one job per value.
    :func:`repro.cli.parse_command` validates the parsed values as a
    whole through the ``job_params`` default set here.
    """
    for param in job_kind(kind).params:
        flag = param.cli_flag
        if flag is None:
            continue
        default = param.default
        if param.type is bool:
            parser.add_argument(
                f"--{flag}", action="store_const", const=not default,
                default=default,
                help=f"do not {param.help}" if default else param.help,
            )
            continue
        many = param.many or param.name == repeat
        if callable(default):
            default = None  # a library-owned default: filled in by validation
        elif param.name == repeat:
            default = [default]
        elif many and default is not None:
            default = list(default)
        parser.add_argument(
            f"--{flag}",
            type=partial(_flag_value, param),
            nargs="+" if many else None,
            default=default,
            choices=None if callable(param.choices) else param.choices,
            help=param.help + (
                "" if default is None else " (default: %(default)s)"
            ),
        )
    parser.set_defaults(job_params=partial(_job_params, kind, repeat))


def _flag_value(param, token: str):
    """One command-line token, converted and checked by its table entry."""
    try:
        return param.convert_item(token)
    except ServiceError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _job_params(kind: str, repeat: str | None, args: argparse.Namespace):
    """The parsed flags of job kind ``kind``, validated as a whole.

    A list of validated params, one per value, when ``repeat`` names a
    parameter; raises :class:`~repro.exceptions.ServiceError` on any
    rejection.
    """
    given = {}
    for param in job_kind(kind).params:
        if param.cli_flag is not None:
            value = getattr(args, param.cli_flag.replace("-", "_"))
            if value is not None:
                given[param.name] = value
    if repeat is None:
        return validate_job(kind, given)
    return [validate_job(kind, {**given, repeat: value}) for value in given[repeat]]
