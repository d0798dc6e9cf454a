package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
)

// Example pins the output. It runs the example twice at once in this
// process: outputs that differ mean package-level mutable state.
func Example() {
	var outs [2]bytes.Buffer
	var errs [2]error
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(&outs[i])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		fmt.Println(err)
	}
	os.Stdout.Write(outs[0].Bytes())
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		fmt.Printf("the second run differs:\n%s", outs[1].Bytes())
	}
	// Output:
	// user 1 before delegation: toolstack: no delegated shard available: xoar: shard not delegated to caller
	// user 0 runs dom10; user 1 runs dom11, dom12
	// user 1 quota enforced: toolstack: VM quota 2: xoar: resource quota exceeded
	// user 1 toolstack attacking user 0's VM: toolstack: dom10 not managed here: xen: operation not permitted
	// user 1 destroyed its own VM fine; user 0's VM still alive: true
}
