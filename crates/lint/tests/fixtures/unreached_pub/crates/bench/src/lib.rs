pub fn bench() {
    mbrpa_core::only_benched();
}
