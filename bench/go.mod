// The benchmark is a module of its own so that it builds from the files
// under bench/ plus the engine it measures: the replace directive points
// at the repository root, and the module path keeps it inside the
// sqlledger/ tree so it may import sqlledger/internal/... for the layer
// kernels and the regular-table twin.
module sqlledger/bench

go 1.22

require sqlledger v0.0.0

replace sqlledger => ../
