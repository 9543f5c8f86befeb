package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestSpaceFlagNames feeds -space the list of names
// internal/server.TestParseJobNames feeds the HTTP API's "space" field:
// both go through partition.ParseSpace, so both accept a space's name in
// any case, take the empty string as linear, and reject everything else.
func TestSpaceFlagNames(t *testing.T) {
	defer func(args []string, fs *flag.FlagSet) { os.Args, flag.CommandLine = args, fs }(os.Args, flag.CommandLine)
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"Bushy", true},
		{"LINEAR", true},
		{"multi", false},
		{"bogus", false},
		{"", true},
	} {
		flag.CommandLine = flag.NewFlagSet("mpqopt", flag.ContinueOnError)
		os.Args = []string{"mpqopt", "-tables", "4", "-space", tc.name}
		err := run()
		if (err == nil) != tc.ok {
			t.Errorf("-space %q: err = %v, want success %v", tc.name, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "unknown plan space") {
			t.Errorf("-space %q: err = %v, want the parser's", tc.name, err)
		}
	}
}
