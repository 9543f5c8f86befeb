package cliutil

import (
	"context"
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"mpq"
	"mpq/internal/sched"
)

// fieldAt reads the value of type T an engine holds at the given path
// of (unexported) field names.
func fieldAt[T any](t *testing.T, eng mpq.Engine, path ...string) T {
	t.Helper()
	v := reflect.ValueOf(eng)
	for _, name := range path {
		v = reflect.Indirect(v).FieldByName(name)
		if !v.IsValid() {
			t.Fatalf("%T has no field %s of %v", eng, name, path)
		}
	}
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem().Interface().(T)
}

// buildTCP parses -tcp-workers addrs for the tcp engine and builds it.
func buildTCP(t *testing.T, addrs string) (mpq.Engine, error) {
	t.Helper()
	fs := flag.NewFlagSet("tcp", flag.ContinueOnError)
	ef := Register(fs, "tcp")
	if err := fs.Parse([]string{"-tcp-workers", addrs}); err != nil {
		t.Fatal(err)
	}
	return ef.Build()
}

// Worker addresses reach the master trimmed of the spaces around the
// commas.
func TestTCPWorkersTrimmed(t *testing.T) {
	eng, err := buildTCP(t, " 127.0.0.1:1 ,127.0.0.1:2")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"127.0.0.1:1", "127.0.0.1:2"}
	if got := fieldAt[[]string](t, eng, "ms", "addrs"); !reflect.DeepEqual(got, want) {
		t.Fatalf("master addresses %q, want %q", got, want)
	}
}

// A trailing comma is an empty address, which the master rejects at
// construction instead of failing every dispatch to it.
func TestTCPWorkersTrailingComma(t *testing.T) {
	_, err := buildTCP(t, "127.0.0.1:9991,")
	if want := "netrun: empty worker address at position 1"; err == nil || err.Error() != want {
		t.Fatalf("trailing comma: %v, want %q", err, want)
	}
}

// Every policy flag is parsed once, into one sched.Config, and the tcp
// and sim engines are both built from that value: no flag reaches only
// one of them.
func TestPolicyFlagsBindOnce(t *testing.T) {
	want := sched.Config{
		Timeout: 7 * time.Second, MaxAttempts: 5, MaxWorkerFailures: 4, ReadmitAfter: 3 * time.Second,
		Speculate: true, SpeculationMultiplier: 3.5, SpeculationFloor: 90 * time.Millisecond,
	}
	args := []string{"-timeout", "7s", "-retries", "5", "-max-worker-failures", "4", "-readmit-after", "3s",
		"-speculate", "-spec-multiplier", "3.5", "-spec-floor", "90ms", "-tcp-workers", "127.0.0.1:1,127.0.0.1:2"}
	policies := map[string]sched.Config{}
	for engine, path := range map[string][]string{
		"sim": {"cfg", "faults", "Policy"},
		"tcp": {"ms", "opts"},
	} {
		fs := flag.NewFlagSet(engine, flag.ContinueOnError)
		ef := Register(fs, engine)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ef.Policy, want) {
			t.Fatalf("-engine %s: flags parsed to %+v, want %+v", engine, ef.Policy, want)
		}
		eng, err := ef.Build()
		if err != nil {
			t.Fatal(err)
		}
		policies[engine] = fieldAt[sched.Config](t, eng, path...)
	}
	if !reflect.DeepEqual(policies["sim"], want) || !reflect.DeepEqual(policies["tcp"], want) {
		t.Fatalf("engines built from one set of flags hold different policies:\nsim %+v\ntcp %+v\nwant %+v",
			policies["sim"], policies["tcp"], want)
	}
}

// Build no longer guesses the pool size: a fault script that names a
// node the pool does not have is rejected where the size is known, by
// the simulator, at the first Optimize. Sign errors need no pool size.
func TestSimFaultScriptIsCheckedAtOptimize(t *testing.T) {
	build := func(args ...string) (mpq.Engine, error) {
		fs := flag.NewFlagSet("sim", flag.ContinueOnError)
		ef := Register(fs, "sim")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return ef.Build()
	}
	for _, flagName := range []string{"-kill", "-stall", "-nodes"} {
		if _, err := build(flagName, "-1"); err == nil || !strings.Contains(err.Error(), "must not be negative") {
			t.Errorf("%s -1: %v", flagName, err)
		}
	}
	eng, err := build("-kill", "9")
	if err != nil {
		t.Fatal(err)
	}
	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(8, mpq.Star), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Optimize(context.Background(), q, mpq.JobSpec{Space: mpq.Linear, Workers: 4})
	if want := "cluster: dead worker 4 out of range [0,4)"; err == nil || err.Error() != want {
		t.Fatalf("-kill 9 on four nodes: %v, want %q", err, want)
	}
}
