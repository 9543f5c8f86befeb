// Command mpqnode runs one worker of the distributed MPQ runtime over
// TCP: start a worker process on every node, then point any engine
// front end at them.
//
//	mpqnode worker -listen :9991
//	mpqopt -engine tcp -tcp-workers host1:9991,host2:9991 -tables 16 -workers 16
//
// The master is not a subcommand here: it is the tcp engine behind the
// shared -engine flag (cmd/mpqopt, the examples, mpqd).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mpq"
	"mpq/internal/cliutil"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mpqnode:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) < 2 {
		return fmt.Errorf("usage: mpqnode worker [-listen ADDR]")
	}
	switch os.Args[1] {
	case "worker":
		return runWorker(os.Args[2:])
	case "master":
		return fmt.Errorf("the master is mpqopt -engine tcp -tcp-workers host:port[,host:port...] (query files as positional arguments run as one batch)")
	default:
		return fmt.Errorf("unknown subcommand %q (want worker)", os.Args[1])
	}
}

func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	listen := fs.String("listen", ":9991", "listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := mpq.ListenWorker(*listen)
	if err != nil {
		return err
	}
	fmt.Printf("mpq worker listening on %s\n", w.Addr())
	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()
	<-ctx.Done()
	fmt.Println("shutting down")
	return w.Close()
}
