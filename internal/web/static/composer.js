// Scenario composer: field schemas for each job kind, mirroring the
// CLI flag defaults (serve.Spec.Normalize applies the same defaults
// server-side, so leaving a field untouched submits the CLI default).

export const SCHEMAS = {
  sim: [
    { key: "load", label: "offered load", type: "number", step: 0.05, def: 0.9 },
    { key: "matrix", label: "traffic matrix", type: "select", options: ["uniform", "diagonal", "hotspot", "incast", "failover"], def: "uniform" },
    { key: "sizes", label: "packet sizes", type: "select", options: ["imix", "64", "1500", "uniform"], def: "imix" },
    { key: "arrival", label: "arrivals", type: "select", options: ["poisson", "bursty"], def: "poisson" },
    { key: "horizon_us", label: "horizon (µs)", type: "number", step: 1, def: 50 },
    { key: "seed", label: "seed", type: "number", step: 1, def: 1 },
    { key: "speedup", label: "HBM speedup", type: "number", step: 0.05, def: 1.1 },
    { key: "stacks", label: "HBM stacks", type: "number", step: 1, def: 4 },
    { key: "shadow", label: "ideal-OQ shadow", type: "bool", def: false },
    { key: "refresh", label: "REFsb refresh", type: "bool", def: false },
    { key: "trace_sample", label: "trace 1-in-N (0 = off)", type: "number", step: 1, def: 0 },
    { key: "core_probes", label: "core-internals probes", type: "bool", def: false },
  ],
  sweep: [
    { key: "experiment", label: "experiment", type: "select", options: ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "A1", "A2", "A3"], def: "E1" },
    { key: "quick", label: "quick horizons", type: "bool", def: true },
    { key: "seed", label: "seed", type: "number", step: 1, def: 1 },
    { key: "reps", label: "replications", type: "number", step: 1, def: 0 },
  ],
  validate: [
    { key: "cases", label: "cases", type: "number", step: 1, def: 100 },
    { key: "seed", label: "seed", type: "number", step: 1, def: 1 },
    { key: "fault", label: "injected fault", type: "select", options: ["", "fixed-group", "starve"], def: "" },
    { key: "horizon_us", label: "horizon override (µs)", type: "number", step: 1, def: 0 },
  ],
  resilience: [
    { key: "mode", label: "mode", type: "select", options: ["failed-switches", "mtbf"], def: "failed-switches" },
    { key: "max_failed", label: "max failed switches", type: "number", step: 1, def: 0 },
    { key: "points", label: "mtbf points", type: "number", step: 1, def: 0 },
    { key: "load", label: "offered load", type: "number", step: 0.05, def: 0 },
    { key: "seed", label: "seed", type: "number", step: 1, def: 0 },
  ],
  split: [
    { key: "policy", label: "policy", type: "select", options: ["all", "static", "leastloaded", "p2c", "adaptive"], def: "all" },
    { key: "workload", label: "workload", type: "select", options: ["all", "adversarial", "elephants", "incast", "churn"], def: "all" },
    { key: "load", label: "offered load", type: "number", step: 0.05, def: 0.9 },
    { key: "horizon_us", label: "horizon (µs)", type: "number", step: 1, def: 40 },
    { key: "epochs", label: "rehash epochs", type: "number", step: 1, def: 4 },
    { key: "seed", label: "seed", type: "number", step: 1, def: 1 },
  ],
  arch: [
    { key: "arch", label: "architecture", type: "select", options: ["all", "sps", "oq", "cq", "spray", "pps", "mesh"], def: "all" },
    { key: "workload", label: "workload", type: "select", options: ["all", "uniform", "heavytail", "onoff", "diurnal", "replay"], def: "all" },
    { key: "n", label: "ports N", type: "number", step: 1, def: 16 },
    { key: "load", label: "offered load", type: "number", step: 0.05, def: 0.9 },
    { key: "tail_alpha", label: "Pareto tail α", type: "number", step: 0.1, def: 1.3 },
    { key: "burst_ratio", label: "ON/OFF peak/mean", type: "number", step: 0.5, def: 4 },
    { key: "horizon_us", label: "horizon (µs)", type: "number", step: 1, def: 40 },
    { key: "seed", label: "seed", type: "number", step: 1, def: 1 },
  ],
};

// buildSpec converts form values into a POST /jobs body, omitting
// fields left at their defaults so the server's Normalize fills them
// (the preview then shows exactly what the daemon will run).
export function buildSpec(kind, values) {
  const spec = { kind };
  const body = {};
  for (const f of SCHEMAS[kind]) {
    let v = values[f.key];
    if (v === undefined || v === "" || v === f.def) continue;
    if (f.type === "number") v = Number(v);
    if (f.type === "bool") v = Boolean(v);
    body[f.key] = v;
  }
  // The wire spec uses horizon_ps; the form uses µs for humans.
  if (body.horizon_us !== undefined && (kind === "sim" || kind === "split" || kind === "arch")) {
    body.horizon_ps = Math.round(body.horizon_us * 1e6);
    delete body.horizon_us;
  }
  // The split and arch sweeps take lists; the composer picks one
  // (or "all", which the server expands via Normalize).
  if (kind === "split" || kind === "arch") {
    if (body.policy) { body.policies = [body.policy]; delete body.policy; }
    if (body.arch) { body.archs = [body.arch]; delete body.arch; }
    if (body.workload) { body.workloads = [body.workload]; delete body.workload; }
  }
  if (Object.keys(body).length) spec[kind] = body;
  return spec;
}
