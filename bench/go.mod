// The benchmark is a module of its own so that it builds from its own
// directory (go -C bench run .) and stays out of the root module's
// ./... patterns. The import path keeps the root module's prefix, which is
// what lets it import the root module's internal packages.
module github.com/tpctl/loadctl/bench

go 1.24

require github.com/tpctl/loadctl v0.0.0

replace github.com/tpctl/loadctl => ../
