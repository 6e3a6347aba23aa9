// The benchmark is a module of its own so that the repository's tier-1
// gate (go build ./... && go test ./... at the root) never builds or
// runs it; the import path stays under mits/ so it may assemble the
// system from the internal packages, exactly as cmd/mitsd does.
module mits/bench

go 1.22

require mits v0.0.0

replace mits => ../
