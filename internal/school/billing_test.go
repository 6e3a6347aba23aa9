package school

import (
	"errors"
	"testing"
)

func billingSchool(t *testing.T) (*School, string) {
	t.Helper()
	s := testSchool(t)
	num, err := s.Register(Profile{Name: "Payer"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFee("ELG5121", Fee{EnrollCents: 5000, SessionCents: 750}); err != nil {
		t.Fatal(err)
	}
	if err := s.Enroll(num, "ELG5121"); err != nil {
		t.Fatal(err)
	}
	return s, num
}

func TestInvoiceUsageBased(t *testing.T) {
	s, num := billingSchool(t)
	// Enrollment only: one charge.
	inv, err := s.Invoice(num)
	if err != nil {
		t.Fatal(err)
	}
	if inv.TotalCents != 5000 || len(inv.Charges) != 1 {
		t.Fatalf("invoice %+v", inv)
	}
	// Three on-demand sessions add usage charges.
	for i := 0; i < 3; i++ {
		s.RecordSession(num, "ELG5121", Position{})
	}
	inv, _ = s.Invoice(num)
	if inv.TotalCents != 5000+3*750 {
		t.Errorf("total %d, want %d", inv.TotalCents, 5000+3*750)
	}
	if len(inv.Charges) != 2 || inv.Charges[0].Description != "3 session(s) on demand" {
		t.Errorf("charges %+v", inv.Charges)
	}
	// Free courses don't bill.
	s.Enroll(num, "HIS1100")
	s.RecordSession(num, "HIS1100", Position{})
	inv, _ = s.Invoice(num)
	if inv.TotalCents != 5000+3*750 {
		t.Errorf("free course billed: %+v", inv)
	}
}

func TestPaymentsAndBalance(t *testing.T) {
	s, num := billingSchool(t)
	if err := s.RecordPayment(num, 2000); err != nil {
		t.Fatal(err)
	}
	inv, _ := s.Invoice(num)
	if inv.PaidCents != 2000 || inv.BalanceCents != 3000 {
		t.Errorf("invoice %+v", inv)
	}
	if err := s.RecordPayment(num, 0); err == nil {
		t.Error("zero payment accepted")
	}
	if err := s.RecordPayment("000", 100); !errors.Is(err, ErrNotFound) {
		t.Error("payment for ghost student")
	}
	if _, err := s.Invoice("000"); !errors.Is(err, ErrNotFound) {
		t.Error("invoice for ghost student")
	}
}

func TestFeeValidation(t *testing.T) {
	s := testSchool(t)
	if err := s.SetFee("ZZZ", Fee{}); !errors.Is(err, ErrNotFound) {
		t.Error("fee on ghost course")
	}
	if err := s.SetFee("ELG5121", Fee{EnrollCents: -1}); err == nil {
		t.Error("negative fee accepted")
	}
}

func TestRevenue(t *testing.T) {
	s, num := billingSchool(t)
	second, _ := s.Register(Profile{Name: "Other"})
	s.Enroll(second, "ELG5121")
	s.RecordPayment(num, 5000)
	billed, paid := s.Revenue()
	if billed != 10000 || paid != 5000 {
		t.Errorf("revenue billed=%d paid=%d", billed, paid)
	}
}
