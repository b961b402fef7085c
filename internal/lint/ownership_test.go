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

// TestKernelOwnershipQueueConstruction drives the Rule 5 fixture: a queue
// constructor is only clean as a direct sim.NewWithQueue argument. Bound to
// a variable, passed indirectly, returned, or stored — it's a finding; the
// sim package itself and waived sites stay silent.
func TestKernelOwnershipQueueConstruction(t *testing.T) {
	pkgs := []fixturePkg{
		{
			path: "liteworp/internal/sim",
			files: map[string]string{"sim.go": `package sim

type Kernel struct {
	q Queue
}

type Queue interface {
	Len() int
}

type fifo struct{}

func (fifo) Len() int { return 0 }

func NewQueue(kind string) Queue { return fifo{} }

func NewCalendarQueue() Queue { return fifo{} }

func NewHeapQueue() Queue { return fifo{} }

func New(seed int64) *Kernel { return NewWithQueue(seed, NewCalendarQueue()) }

func NewWithQueue(seed int64, q Queue) *Kernel { return &Kernel{q: q} }
`},
		},
		{
			path: "liteworp/cmd/fix",
			files: map[string]string{"main.go": `package main

import "liteworp/internal/sim"

func direct() *sim.Kernel {
	return sim.NewWithQueue(1, sim.NewQueue("heap"))
}

func directParen() *sim.Kernel {
	return sim.NewWithQueue(1, (sim.NewCalendarQueue()))
}

func bound() *sim.Kernel {
	q := sim.NewQueue("heap") // want:kernel-ownership
	return sim.NewWithQueue(1, q)
}

func escaped() sim.Queue {
	return sim.NewHeapQueue() // want:kernel-ownership
}

func waivedBench() *sim.Kernel {
	//lint:ownership fixture: benchmark probes the queue before attaching it
	q := sim.NewCalendarQueue()
	return sim.NewWithQueue(1, q)
}

func main() {
	direct()
	directParen()
	bound()
	escaped()
	waivedBench()
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
