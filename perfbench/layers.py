"""Names, units and directions of the per-layer metrics a traced run
prints.  Every traced run prints all of them; a layer the workload never
calls reads 0 calls and 0 ms.  BENCHMARK.json lists the same set (a test
checks that they agree)."""

IMPORT_MODULES = (
    "pathamp.cli", "pathamp", "pathamp.core_num", "pathamp.propagators",
    "pathamp.oracle", "pathamp.wave_optics", "pathamp.refraction",
    "pathamp.ray_optics", "pathamp.reflection", "pathamp.michelson",
    "pathamp.flavour", "numpy", "scipy.optimize", "mpmath",
)

CLI_SUBCOMMANDS = (
    "propagator", "diffraction", "refract-index", "refract-series", "annulment",
    "snell", "reflect", "michelson", "ydse", "kaon", "neutrino", "classify",
    "oracle", "reproduce",
)

REFRACTION_ERRORS = ("SeriesDisagreement", "ConvergenceError",
                     "PreconditionError", "DomainError", "other")

ORACLE_FUNCTIONS = ("quad_nested", "mc_ordered_volume", "quad_oscillatory",
                    "gaussian_ratio_integral", "series_sum_highprec")

FAILURE_KINDS = ("refused_valid", "wrong_result", "accepted_invalid", "crashed")


def per_layer_metrics():
    """[(name, unit, better)] in the order a traced run prints them."""
    out = [("process.interp_start_ms", "ms", "lower")]
    out += [(f"import.{m}_ms", "ms", "lower") for m in IMPORT_MODULES]
    out += [(f"cli.main.{s}_ms", "ms", "lower") for s in CLI_SUBCOMMANDS]
    for fn, extra in (("time_budget_factor", ("n_terms_mean",)),
                      ("unconstrained_block_amplitude", ())):
        out += [(f"refraction.{fn}.calls", "count", "higher"),
                (f"refraction.{fn}.busy_ms", "ms", "lower"),
                (f"refraction.{fn}.failed", "count", "lower")]
        out += [(f"refraction.{fn}.{x}", "count", "lower") for x in extra]
    out += [(f"refraction.failed.{e}", "count", "lower") for e in REFRACTION_ERRORS]
    for fn in ORACLE_FUNCTIONS:
        out += [(f"oracle.{fn}.calls", "count", "higher"),
                (f"oracle.{fn}.busy_ms", "ms", "lower"),
                (f"oracle.{fn}.failed", "count", "lower")]
        if fn != "series_sum_highprec":  # returns a bare number, no count
            out.append((f"oracle.{fn}.evaluations", "count", "lower"))
    out.append(("oracle.quad_nested.order4.busy_ms", "ms", "lower"))
    out.append(("check.busy_ms", "ms", "lower"))
    out += [(f"check.failed.{k}", "count", "lower") for k in FAILURE_KINDS]
    out += [("check.failed_frac", "ratio", "lower"),
            ("check.max_rel_err", "ratio", "lower"),
            ("trace.overhead_ms", "ms", "lower"),
            ("trace.overhead_pct", "%", "lower")]
    return out


def add_failure_counts(tracer, metrics: dict) -> None:
    """Add a tracer's refused calls to the refraction.*failed* metrics."""
    for fn in ("time_budget_factor", "unconstrained_block_amplitude"):
        lay = tracer.layer(f"refraction.{fn}")
        name = f"refraction.{fn}.failed"
        metrics[name] = metrics.get(name, 0) + lay["failed"]
        for err, count in lay["errors"].items():
            key = err if err in REFRACTION_ERRORS else "other"
            name = f"refraction.failed.{key}"
            metrics[name] = metrics.get(name, 0) + count


def metrics_from_tracer(tracer, metrics: dict) -> None:
    """Fill the refraction.* and oracle.* metrics from a tracer's spans."""
    for fn in ("time_budget_factor", "unconstrained_block_amplitude"):
        lay = tracer.layer(f"refraction.{fn}")
        metrics[f"refraction.{fn}.calls"] = lay["calls"]
        metrics[f"refraction.{fn}.busy_ms"] = lay["busy_ms"]
        if fn == "time_budget_factor":
            metrics[f"refraction.{fn}.n_terms_mean"] = lay.get("n_terms_mean", 0.0)
    add_failure_counts(tracer, metrics)
    for fn in ORACLE_FUNCTIONS:
        lay = tracer.layer(f"oracle.{fn}")
        metrics[f"oracle.{fn}.calls"] = lay["calls"]
        metrics[f"oracle.{fn}.busy_ms"] = lay["busy_ms"]
        metrics[f"oracle.{fn}.failed"] = lay["failed"]
        if fn != "series_sum_highprec":
            metrics[f"oracle.{fn}.evaluations"] = lay.get("evaluations_mean", 0.0)
    metrics["oracle.quad_nested.order4.busy_ms"] = tracer.busy_ms(
        "oracle.quad_nested", where=lambda s: s[5].get("order") == 4)


def traced_targets():
    """(module, function, describe) for every function the layers time."""
    from pathamp import oracle, refraction

    def factor_info(args, res):
        return {"n_terms": res.n_terms}

    def oracle_info(args, res):
        return {"evaluations": res.evaluations}

    def nested_info(args, res):
        return {"evaluations": res.evaluations, "order": args[0]}

    return [
        (refraction, "time_budget_factor", factor_info),
        (refraction, "unconstrained_block_amplitude", None),
        (oracle, "quad_nested", nested_info),
        (oracle, "mc_ordered_volume", oracle_info),
        (oracle, "quad_oscillatory", oracle_info),
        (oracle, "gaussian_ratio_integral", oracle_info),
        (oracle, "series_sum_highprec", None),
    ]
