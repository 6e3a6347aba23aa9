package transport

// BufAudit lets the package's external tests — the ones that need the
// cluster router, which imports this package — install the pooled-
// buffer audit.
var BufAudit = &bufAudit

// RaceEnabled tells them whether allocation counts mean anything.
const RaceEnabled = raceEnabled
