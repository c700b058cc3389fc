// Command jsoncheck exits non-zero unless every file argument holds
// one well-formed JSON value. scripts/sinksmoke.sh runs it over the
// -metrics-out and -timeseries-out snapshots.
//
// Usage:
//
//	go run ./scripts/jsoncheck metrics.json ts.json
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

func main() {
	for _, path := range os.Args[1:] {
		raw, err := os.ReadFile(path)
		if err == nil && !json.Valid(raw) {
			err = errors.New("not valid JSON")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "jsoncheck: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}
