// Package server keeps the daemon's package name under the ctxflow
// analyzer's proof. The daemon's wire front once minted its own
// connection-lifetime root context; the one such root left lives in
// netrun's frame endpoint, so this fixture shows the analyzer still
// fires on a package called server.
package server

import "context"

// serveConn mints a root context for one connection's life, as the
// daemon's wire front once did. Without an allow directive, flagged.
func serveConn() context.CancelFunc {
	_, cancel := context.WithCancel(context.Background()) // want "context.Background.. severs the caller"
	return cancel
}

// serveConnAllowed is the same root with its reason recorded, as the
// one real root, in netrun's frame endpoint, carries it.
func serveConnAllowed() context.CancelFunc {
	_, cancel := context.WithCancel(context.Background()) //lint:allow ctxflow connection-lifetime root; teardown cancels it
	return cancel
}
