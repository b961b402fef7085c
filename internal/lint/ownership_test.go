package lint

import "testing"

// TestKernelOwnership drives the DESIGN §6.3 boundary checker over a
// fixture module with a fake sim package (matched by import-path suffix):
// restricted state handed to a goroutine at the spawn site, captured by a
// spawned closure, read from a package-level variable in
// goroutine-reachable code, and carried by a channel element type — plus
// the allowed shapes: plain job channels, parameter handoff inside one
// goroutine, and a waived capture (a waiver without a reason waives
// nothing).
func TestKernelOwnership(t *testing.T) {
	pkgs := []fixturePkg{
		{
			path: "liteworp/internal/sim",
			files: map[string]string{"sim.go": `package sim

type Kernel struct {
	now int64
}

func (k *Kernel) Step() bool {
	k.now++
	return false
}
`},
		},
		{
			path: "liteworp/cmd/fix",
			files: map[string]string{"main.go": `package main

import "liteworp/internal/sim"

type job struct {
	seed int64
}

var shared *sim.Kernel

func worker(jobs chan job) {
	for range jobs {
	}
}

func touchGlobal() {
	if shared != nil { // want:kernel-ownership
		shared.Step()
	}
}

func run(k *sim.Kernel) {
	for k.Step() {
	}
}

func ownershipByParameter() {
	k := &sim.Kernel{}
	run(k)
}

func main() {
	k := &sim.Kernel{}
	go k.Step() // want:kernel-ownership
	go func() {
		k.Step() // want:kernel-ownership
	}()
	bad := make(chan *sim.Kernel) // want:kernel-ownership
	_ = bad
	jobs := make(chan job)
	go worker(jobs)
	close(jobs)
	go touchGlobal()
	k2 := &sim.Kernel{}
	go func() {
		k2.Step() //lint:ownership fixture: spawner joins before next use
	}()
	k3 := &sim.Kernel{}
	go func() {
		//lint:ownership
		k3.Step() // want:kernel-ownership
	}()
	ownershipByParameter()
}
`},
		},
	}
	checkFixture(t, KernelOwnership, pkgs)
}

// TestKernelOwnershipNoSim: a module without restricted root types (no sim
// package, no root Scenario) has nothing to protect and must stay silent
// even around raw goroutines.
func TestKernelOwnershipNoSim(t *testing.T) {
	diags := runFixture(t, KernelOwnership, []fixturePkg{{
		path: "liteworp/cmd/fix",
		files: map[string]string{"main.go": `package main

func main() {
	ch := make(chan int)
	go func() { ch <- 1 }()
	<-ch
}
`},
	}})
	if len(diags) != 0 {
		t.Fatalf("module without restricted types produced findings: %v", diags)
	}
}
