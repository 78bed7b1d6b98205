//! The circuit verbs: `simulate`, `cost`, `check` and `spec`, each over
//! RevLib `.real` files.

use super::{Args, Command, Outcome};
use crate::revlogic::{cost, real, spec_format, Circuit, Spec};
use crate::synth::equivalence;
use std::io::Write;

/// Parses `simulate <file> <bits>`, `cost <file>`, `check <a> <b>` and
/// `spec <file>`.
pub(super) fn parse(sub: &str, args: &mut Args) -> Result<Command, String> {
    let cmd = match sub {
        "simulate" => Command::Simulate {
            path: args.required("simulate: missing circuit file")?,
            input: args.required("simulate: missing input bits")?,
        },
        "cost" => Command::Cost {
            path: args.required("cost: missing circuit file")?,
        },
        "check" => Command::Check {
            a: args.required("check: missing first circuit")?,
            b: args.required("check: missing second circuit")?,
        },
        _ => Command::SpecOf {
            path: args.required("spec: missing circuit file")?,
        },
    };
    args.finish()?;
    Ok(cmd)
}

fn read_circuit(path: &str) -> Result<Circuit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    real::parse_real(&text).map_err(|e| e.to_string())
}

/// `value`'s low `lines` bits, highest line first (the `.spec` order).
fn bits(value: u32, lines: u32) -> String {
    (0..lines)
        .rev()
        .map(|l| if (value >> l) & 1 == 1 { '1' } else { '0' })
        .collect()
}

/// `qsyn simulate`: runs the circuit on one input.
pub(super) fn simulate(path: &str, input: &str, out: &mut dyn Write) -> Outcome {
    let circuit = read_circuit(path)?;
    let n = circuit.lines();
    if input.len() != n as usize || !input.chars().all(|c| c == '0' || c == '1') {
        return Err(format!("input must be {n} binary digits").into());
    }
    // Leftmost digit = highest line, consistent with .spec files.
    let value = input
        .chars()
        .fold(0u32, |acc, ch| (acc << 1) | u32::from(ch == '1'));
    writeln!(out, "{input} -> {}", bits(circuit.simulate(value), n))?;
    Ok(0)
}

/// `qsyn cost`: gate counts and quantum cost.
pub(super) fn cost(path: &str, out: &mut dyn Write) -> Outcome {
    let circuit = read_circuit(path)?;
    let (mct, mcf, peres) = circuit.gate_counts();
    writeln!(out, "lines:        {}", circuit.lines())?;
    writeln!(
        out,
        "gates:        {} (MCT {mct}, MCF {mcf}, Peres {peres})",
        circuit.len()
    )?;
    writeln!(out, "quantum cost: {}", cost::circuit_cost(&circuit))?;
    writeln!(
        out,
        "NCV network:  {} elementary gates (zero-ancilla decomposition)",
        qsyn_revlogic::ncv::network_cost(&circuit)
    )?;
    Ok(0)
}

/// `qsyn check`: equivalence with a counterexample; exit 1 when the
/// circuits differ.
pub(super) fn check(a: &str, b: &str, out: &mut dyn Write) -> Outcome {
    let (ca, cb) = (read_circuit(a), read_circuit(b));
    let (ca, cb) = (ca?, cb?);
    if ca.lines() != cb.lines() {
        return Err("circuits have different line counts".into());
    }
    let Some(cex) = equivalence::counterexample_sat(&ca, &cb) else {
        debug_assert!(equivalence::equivalent_bdd(&ca, &cb));
        writeln!(out, "EQUIVALENT")?;
        return Ok(0);
    };
    let n = ca.lines();
    writeln!(out, "NOT EQUIVALENT")?;
    writeln!(
        out,
        "counterexample: input {} -> {} vs {}",
        bits(cex, n),
        bits(ca.simulate(cex), n),
        bits(cb.simulate(cex), n)
    )?;
    Ok(1)
}

/// `qsyn spec`: the circuit's truth table.
pub(super) fn spec(path: &str, out: &mut dyn Write) -> Outcome {
    let circuit = read_circuit(path)?;
    let spec = Spec::from_permutation(&circuit.permutation());
    write!(out, "{}", spec_format::write_spec(&spec))?;
    Ok(0)
}
