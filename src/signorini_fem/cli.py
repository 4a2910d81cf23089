"""Command line front end.

Usage:
    signorini-fem study --config study.cfg --min-level 1 --max-level 8 \
        --out-dir results --knots 0.5,1.0

Flag values override the config file.  Exit code 0 on success, nonzero with
a message on any error.
"""

from __future__ import annotations

import logging
import sys

import click

from .study import StudyConfig, _parse_value, config_from_file, run_study


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Log per-level progress.")
def main(verbose: bool):
    """Finite element contact solver and convergence-study runner."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Flat key = value config file.")
@click.option("--min-level", type=str, default=None)
@click.option("--max-level", type=str, default=None)
@click.option("--out-dir", type=click.Path(file_okay=False), default=None)
@click.option("--knots", type=str, default=None, help="Cut-off knots, e.g. 0.5,1.0")
@click.option("--no-lambda-tilde", is_flag=True, help="Skip the consistency-flux track.")
def study(config_path, min_level, max_level, out_dir, knots, no_lambda_tilde):
    """Run the refinement study and write results.csv / results.json."""
    kwargs = {}
    try:
        if config_path is not None:
            kwargs.update(config_from_file(config_path))
        flags = dict(min_level=min_level, max_level=max_level, out_dir=out_dir, knots=knots)
        for key, value in flags.items():
            if value is not None:
                try:
                    kwargs[key] = _parse_value(StudyConfig.__dataclass_fields__[key].type, value)
                except ValueError as exc:
                    raise ValueError(f"--{key.replace('_', '-')}: {exc}") from None
        if no_lambda_tilde:
            kwargs["compute_lambda_tilde"] = False
        config = StudyConfig(**kwargs)
        records = run_study(config)
    except (ValueError, RuntimeError) as exc:
        raise click.ClickException(str(exc))
    except OSError as exc:  # e.g. a report directory under an existing file
        raise click.ClickException(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc))

    click.echo(f"levels {records[0].level}..{records[-1].level} done")
    header = f"{'level':>5} {'h':>12} {'e_L2_omega':>12} {'rate':>6} {'e_Hmhalf_lam':>13} {'rate':>6} {'iters':>5}"
    click.echo(header)
    for rec in records:
        r_l2 = rec.rates.get("e_L2_omega")
        r_hm = rec.rates.get("e_Hminushalf_lambda")
        click.echo(
            f"{rec.level:>5} {rec.h:>12.4e} {rec.errors['e_L2_omega']:>12.4e} "
            f"{'' if r_l2 is None else f'{r_l2:6.3f}':>6} "
            f"{rec.errors['e_Hminushalf_lambda']:>13.4e} "
            f"{'' if r_hm is None else f'{r_hm:6.3f}':>6} {rec.iterations:>5}"
        )
    if config.out_dir is not None:
        click.echo(f"reports written to {config.out_dir}")


if __name__ == "__main__":
    main()
