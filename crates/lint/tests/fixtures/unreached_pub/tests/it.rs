#[test]
fn it() {
    mbrpa_core::only_benched();
}
