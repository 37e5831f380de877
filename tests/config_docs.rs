//! README's configuration table must name exactly the fields
//! `SystemConfig` has, in order, with the defaults it really has — the
//! text form (`Display`) is the source both sides are compared through.

use waterwheel::prelude::SystemConfig;

#[test]
fn readme_table_matches_the_setter_table() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md is readable");
    let section = readme
        .split("\n## Configuration\n")
        .nth(1)
        .expect("README has a Configuration section");
    // The first table of the section: rows `| `name` | `default` | … |`.
    let documented: Vec<String> = section
        .lines()
        .skip_while(|l| !l.starts_with("| `"))
        .take_while(|l| l.starts_with("| `"))
        .map(|row| {
            let mut cells = row.split('|').skip(1).map(|c| c.trim().trim_matches('`'));
            format!("{}={}", cells.next().unwrap(), cells.next().unwrap())
        })
        .collect();
    let actual = SystemConfig::default().to_string();
    assert_eq!(documented, actual.lines().collect::<Vec<_>>());
}
