//! Taskset file I/O for the CLI.

use crate::args::{positive_count, Args};
use fpga_rt_model::{Fpga, TaskSet};

/// Load a `TaskSet<f64>` from a JSON file (the serde wire form: an array of
/// `{"exec", "deadline", "period", "area"}` objects).
pub fn load_taskset(path: &str) -> Result<TaskSet<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("invalid taskset in {path}: {e}"))
}

/// Parse the required `--columns` flag into a device.
pub fn device_from(args: &Args) -> Result<Fpga, String> {
    let columns = positive_count(args, "columns")?.ok_or("--columns N (≥1) is required")?;
    let columns =
        u32::try_from(columns).map_err(|_| format!("--columns {columns} is too large"))?;
    Fpga::new(columns).map_err(|e| e.to_string())
}

/// Resolve the `--taskset` flag and load the file.
pub fn taskset_from(args: &Args) -> Result<TaskSet<f64>, String> {
    let path = args
        .flags
        .get("taskset")
        .filter(|p| !p.is_empty())
        .ok_or_else(|| "--taskset FILE is required".to_string())?;
    load_taskset(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_file() {
        let ts: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(2.10, 5.0, 5.0, 7), (2.00, 7.0, 7.0, 7)]).unwrap();
        let dir = std::env::temp_dir().join("fpga-rt-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.json");
        std::fs::write(&path, serde_json::to_string(&ts).unwrap()).unwrap();
        let back = load_taskset(path.to_str().unwrap()).unwrap();
        assert_eq!(back, ts);
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        assert!(load_taskset("/nonexistent/nope.json").is_err());
    }

    #[test]
    fn invalid_json_is_a_clean_error() {
        let dir = std::env::temp_dir().join("fpga-rt-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "[{\"exec\": -1}]").unwrap();
        assert!(load_taskset(path.to_str().unwrap()).is_err());
        // Structurally valid JSON but invalid model (empty set) also fails.
        std::fs::write(&path, "[]").unwrap();
        assert!(load_taskset(path.to_str().unwrap()).is_err());
    }

    #[test]
    fn device_flag_validation() {
        let args = Args::from_args(["--columns", "10"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(device_from(&args).unwrap().columns(), 10);
        let args = Args::from_args(std::iter::empty()).unwrap();
        assert!(device_from(&args).unwrap_err().contains("is required"));
        let args = Args::from_args(["--columns", "1O"].iter().map(|s| s.to_string())).unwrap();
        assert!(device_from(&args).unwrap_err().contains("positive integer"));
    }
}
