package transient_test

import (
	"fmt"

	"deaduops/internal/cpu"
	"deaduops/internal/transient"
	"deaduops/internal/victim"
)

// Example leaks a victim library's secret through the micro-op cache
// after transiently bypassing its bounds check (the paper's variant 1).
func Example() {
	c := cpu.New(cpu.Intel())
	v, err := transient.NewVariant1(c)
	if err != nil {
		fmt.Println(err)
		return
	}
	v.WriteSecret([]byte("k3y"))
	leaked, _, err := v.Leak(3)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s\n", leaked)
	// Output:
	// k3y
}

// ExampleVariant2 leaks a secret bit through an LFENCE: the transmitter
// is fetched at its predicted target before it can ever be dispatched.
func ExampleVariant2() {
	c := cpu.New(cpu.Intel())
	v, err := transient.NewVariant2(c, victim.WithLFENCE)
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := v.Calibrate(4); err != nil {
		fmt.Println(err)
		return
	}
	v.WriteSecret(1)
	bit, err := v.LeakBit()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("secret bit:", bit)
	// Output:
	// secret bit: true
}

// ExampleVariant2_SignalStrength is the paper's Figure 10 in three
// lines: the probe time with the secret bit set (one) and clear (zero)
// behind each fence. LFENCE leaves the channel open, because the
// transmitter is fetched before it could ever dispatch; only the
// fetch-serializing CPUID closes it.
func ExampleVariant2_SignalStrength() {
	for _, f := range []victim.Fence{victim.NoFence, victim.WithLFENCE, victim.WithCPUID} {
		v, err := transient.NewVariant2(cpu.New(cpu.Intel()), f)
		if err != nil {
			fmt.Println(err)
			return
		}
		one, zero, err := v.SignalStrength(4)
		if err != nil {
			fmt.Println(err)
			return
		}
		leak := "LEAKS"
		if zero <= one*1.2 {
			leak = "closed"
		}
		fmt.Printf("fence=%-7s probe(one)=%4.0f probe(zero)=%4.0f → channel %s\n", f, one, zero, leak)
	}
	// Output:
	// fence=none    probe(one)=  25 probe(zero)= 104 → channel LEAKS
	// fence=lfence  probe(one)=  25 probe(zero)= 104 → channel LEAKS
	// fence=cpuid   probe(one)= 104 probe(zero)= 104 → channel closed
}
