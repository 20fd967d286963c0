//! The `dpgen` command-line generator — the tool the paper describes: read
//! a high-level problem description, emit a fully functioning hybrid
//! OpenMP + MPI program, or inspect what the generator derived.
//!
//! ```text
//! dpgen emit  <spec-file> [-o out.c]    # generate the hybrid C program
//! dpgen info  <spec-file>               # show derived geometry
//! dpgen count <spec-file> <params...>   # count cells/tiles for parameters
//! ```

use dpgen::codegen::emit_c;
use dpgen::core::Program;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dpgen emit  <spec-file> [-o <out.c>]\n  dpgen info  <spec-file>\n  dpgen count <spec-file> <param>...\n"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Program, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Program::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "emit" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let out = match (args.get(2).map(String::as_str), args.get(3)) {
                (Some("-o"), Some(f)) => Some(f.clone()),
                (None, _) => None,
                _ => return usage(),
            };
            let program = match load(path) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let source = emit_c(&program);
            match out {
                Some(f) => {
                    if let Err(e) = std::fs::write(&f, &source) {
                        eprintln!("error: {f}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("wrote {f} ({} lines)", source.lines().count());
                }
                None => print!("{source}"),
            }
            ExitCode::SUCCESS
        }
        "info" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let program = match load(path) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let spec = program.spec();
            let tiling = program.tiling();
            println!("problem `{}`", spec.name);
            println!(
                "  dimensions : {} ({})",
                tiling.dims(),
                spec.vars.join(", ")
            );
            println!("  parameters : {}", spec.params.join(", "));
            println!("  tile widths: {:?}", tiling.widths());
            println!("  templates  : {}", tiling.templates().len());
            for t in tiling.templates().templates() {
                println!("    {} = {:?}", t.name, t.offset.as_slice());
            }
            println!("  scan dirs  : {:?}", tiling.templates().directions());
            println!("  tile deps  : {}", tiling.deps().len());
            for dep in tiling.deps() {
                println!("    δ = {} (templates {:?})", dep.delta, dep.templates);
            }
            println!("  tile space :");
            for c in tiling.tile_system().constraints() {
                println!("    {}", c.display(tiling.ext_space()));
            }
            println!(
                "  buffer     : {} cells/tile (ghost-padded; pads lo {:?}, hi {:?})",
                tiling.layout().size(),
                tiling.layout().pads_lo(),
                tiling.layout().pads_hi()
            );
            println!(
                "  validity   : {} unique checks across {} templates",
                tiling.validity_checks().len(),
                tiling.templates().len()
            );
            ExitCode::SUCCESS
        }
        "count" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let program = match load(path) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let params: Result<Vec<i64>, _> = args[2..].iter().map(|a| a.parse()).collect();
            let Ok(params) = params else { return usage() };
            let tiling = program.tiling();
            if params.len() != program.spec().params.len() {
                eprintln!(
                    "error: {} parameter(s) expected ({}), got {}",
                    program.spec().params.len(),
                    program.spec().params.join(", "),
                    params.len()
                );
                return ExitCode::FAILURE;
            }
            let graph = tiling.graph(&params);
            println!("cells  : {}", tiling.total_cells(&params));
            println!("tiles  : {}", graph.len());
            println!("initial: {}", graph.initial().count());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
