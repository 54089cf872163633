// Detlint is the repository's static-analysis suite (package detlint)
// packaged as a go vet tool. Build it once, then point go vet at it:
//
//	go build -o bin/detlint ./cmd/detlint
//	go vet -vettool=bin/detlint ./...
//
// or simply `make lint` (human output) / `make analyze` (-json output).
// See package detlint for the analyzers and the //detlint:allow
// suppression protocol.
package main

import (
	"columbia/internal/analysis/detlint"
	"columbia/internal/analysis/unitchecker"
)

func main() {
	unitchecker.Main("detlint", detlint.Suite, detlint.Names())
}
