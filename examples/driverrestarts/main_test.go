package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
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
	// The table header pads its last column, and an Output comment keeps no
	// trailing spaces.
	lines := strings.Split(outs[0].String(), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	fmt.Print(strings.Join(lines, "\n"))
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		fmt.Printf("the second run differs:\n%s", outs[1].Bytes())
	}
	// Output:
	// baseline (no restarts): 117.0 MB/s
	//
	// interval   slow (260ms)     fast (140ms)
	// 1s           61.9 MB/s  53%   96.5 MB/s  82%
	// 2s           88.0 MB/s  75%  106.3 MB/s  91%
	// 3s           97.7 MB/s  83%  109.6 MB/s  94%
	// 4s          103.3 MB/s  88%  112.0 MB/s  96%
	// 5s          106.5 MB/s  91%  113.2 MB/s  97%
	// 6s          106.5 MB/s  91%  113.2 MB/s  97%
	// 7s          109.8 MB/s  94%  114.4 MB/s  98%
	// 8s          109.8 MB/s  94%  114.4 MB/s  98%
	// 9s          109.8 MB/s  94%  114.4 MB/s  98%
	// 10s         113.3 MB/s  97%  115.7 MB/s  99%
	//
	// paper: ~8% loss at 10s, ~58% at 1s (slow); fast helps most at small intervals
}
