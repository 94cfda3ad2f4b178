//! Minimal CLI argument parsing for `run_all`.

/// Common sweep parameters, overridable via `--key=value` flags.
#[derive(Clone, Debug)]
pub struct EvalArgs {
    /// Dataset scale factor for the housing/movies generators.
    pub scale: f64,
    pub seed: u64,
    pub keeps: Vec<f64>,
    pub corrs: Vec<f64>,
    /// `--quick` halves the grid for smoke runs.
    pub quick: bool,
}

impl Default for EvalArgs {
    fn default() -> Self {
        Self {
            scale: 0.3,
            seed: 7,
            keeps: vec![0.2, 0.4, 0.6, 0.8],
            corrs: vec![0.2, 0.4, 0.6, 0.8],
            quick: false,
        }
    }
}

const USAGE: &str =
    "usage: run_all [--quick] [--scale=0.3] [--seed=7] [--keeps=0.2,0.4] [--corrs=0.2,0.8]";

fn parse_value<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .trim()
        .parse()
        .map_err(|_| format!("{key}: cannot parse {value:?}"))
}

/// Parses a comma-separated list; one unparsable item rejects the list.
fn parse_list(key: &str, value: &str) -> Result<Vec<f64>, String> {
    value.split(',').map(|v| parse_value(key, v)).collect()
}

/// Parses flags (without the program name); the error names the bad flag.
fn parse_from(flags: impl IntoIterator<Item = String>) -> Result<EvalArgs, String> {
    let mut args = EvalArgs::default();
    for arg in flags {
        if arg == "--quick" {
            args.quick = true;
            continue;
        }
        let Some((key, value)) = arg.split_once('=') else {
            return Err(format!("unexpected argument {arg:?}"));
        };
        match key {
            "--scale" => args.scale = parse_value(key, value)?,
            "--seed" => args.seed = parse_value(key, value)?,
            "--keeps" => args.keeps = parse_list(key, value)?,
            "--corrs" => args.corrs = parse_list(key, value)?,
            _ => return Err(format!("unknown flag {key}")),
        }
    }
    if args.quick {
        args.keeps = vec![0.2, 0.8];
        args.corrs = vec![0.2, 0.8];
    }
    Ok(args)
}

/// Parses `std::env::args()`; an unknown flag or an unparsable value
/// prints usage help and exits with status 2.
pub fn parse_args() -> EvalArgs {
    parse_from(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<EvalArgs, String> {
        parse_from(flags.iter().map(|f| f.to_string()))
    }

    #[test]
    fn values_and_lists_parse() {
        let args = parse(&["--scale=0.5", "--seed=3", "--keeps=0.2,0.4", "--corrs=1"]).unwrap();
        assert_eq!((args.scale, args.seed), (0.5, 3));
        assert_eq!((args.keeps, args.corrs), (vec![0.2, 0.4], vec![1.0]));
    }

    #[test]
    fn quick_fixes_the_grid() {
        let args = parse(&["--keeps=0.5", "--quick"]).unwrap();
        assert!(args.quick);
        assert_eq!((args.keeps, args.corrs), (vec![0.2, 0.8], vec![0.2, 0.8]));
    }

    #[test]
    fn an_unparsable_value_is_an_error_not_the_default() {
        assert!(parse(&["--scale=O.3"]).unwrap_err().contains("--scale"));
        assert!(parse(&["--seed=-1"]).is_err());
    }

    #[test]
    fn an_unparsable_list_item_rejects_the_list() {
        assert!(parse(&["--keeps=0.2,x"]).is_err());
        assert!(parse(&["--keeps=x"]).is_err());
        assert!(parse(&["--corrs="]).is_err());
    }

    #[test]
    fn unknown_flags_and_bare_words_are_errors() {
        assert!(parse(&["--train-workers=2"]).is_err());
        assert!(parse(&["quick"]).is_err());
    }
}
