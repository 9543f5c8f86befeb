// The benchmark is a module of its own so that it builds from its own
// build file; the module path keeps the mpq/ prefix so the harness may
// import the internal layers it walks. Run it from this directory.
module mpq/bench

go 1.24

require mpq v0.0.0

replace mpq => ../
