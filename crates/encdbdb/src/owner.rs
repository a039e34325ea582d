//! The data owner (paper Fig. 5, steps 1–4).
//!
//! The owner generates the master key `SK_DB`, attests the server's enclave
//! and provisions the key over the attested channel, encrypts the plaintext
//! database column by column (`EncDB`), and deploys the result.

use crate::error::DbError;
use crate::schema::{DictChoice, TableSchema};
use crate::server::{DbaasServer, DeployedColumn};
use colstore::column::Column;
use colstore::table::Table;
use encdbdb_crypto::hkdf::derive_column_key;
use encdbdb_crypto::keys::{Key128, Key256};
use encdbdb_crypto::{x25519, Pae};
use encdict::build::{build_encrypted, build_plain, BuildParams};
use enclave_sim::attestation::{Measurement, VerificationService};
use enclave_sim::channel::{self, Role};
use rand::Rng;

/// The trusted data owner.
#[derive(Debug)]
pub struct DataOwner {
    skdb: Key128,
}

impl DataOwner {
    /// Step 1: generates a fresh master key.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        DataOwner {
            skdb: Key128::generate(rng),
        }
    }

    /// Creates an owner from an existing key (e.g. restored from backup).
    pub fn from_key(skdb: Key128) -> Self {
        DataOwner { skdb }
    }

    /// The master key — handed to the trusted proxy (step 2's out-of-band
    /// provisioning).
    pub fn master_key(&self) -> Key128 {
        self.skdb.clone()
    }

    /// Step 2: remote-attests the server's enclave *instances* — the
    /// query-path one and the compaction one, both measuring to the same
    /// expected code identity — and provisions `SK_DB` to each over its
    /// own derived secure channel.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Enclave`] if a quote does not verify, a
    /// measurement is unexpected, or provisioning fails.
    pub fn provision<R: Rng + ?Sized>(
        &self,
        server: &DbaasServer,
        service: &VerificationService,
        expected_measurement: Measurement,
        rng: &mut R,
    ) -> Result<(), DbError> {
        for handle in server.enclave_handles() {
            let mut enclave = handle.lock().unwrap_or_else(|e| e.into_inner());
            let quote = enclave.enclave_mut().attest(rng);
            let report = service.verify_expecting(&quote, expected_measurement)?;
            let owner_secret = Key256::generate(rng);
            let owner_public = x25519::public_key(&owner_secret);
            let session = channel::session_key(&owner_secret, &report.report_data, Role::DataOwner);
            let wrapped = Pae::new(&session)
                .encrypt_with_rng(rng, self.skdb.as_bytes(), channel::PROVISION_AAD)
                .into_bytes();
            enclave
                .enclave_mut()
                .provision_key(&owner_public, &wrapped)?;
        }
        Ok(())
    }

    /// Re-attaches to a restarted server (crash recovery, DESIGN.md §12):
    /// attests the fresh enclave instances and re-provisions `SK_DB` over
    /// the attested channels — *without* re-encrypting or re-deploying any
    /// data. The tables come back from sealed snapshots and the WAL; only
    /// the volatile in-enclave key needs the owner again.
    ///
    /// # Errors
    ///
    /// As [`DataOwner::provision`].
    pub fn reattach<R: Rng + ?Sized>(
        &self,
        server: &DbaasServer,
        service: &VerificationService,
        expected_measurement: Measurement,
        rng: &mut R,
    ) -> Result<(), DbError> {
        self.provision(server, service, expected_measurement, rng)
    }

    /// Step 3: `EncDB` — encrypts a plaintext table according to its
    /// schema, producing deployable columns.
    ///
    /// # Errors
    ///
    /// Propagates build failures (oversized values, bad bs_max).
    pub fn encrypt_table<R: Rng + ?Sized>(
        &self,
        table: &Table,
        schema: &TableSchema,
        rng: &mut R,
    ) -> Result<Vec<DeployedColumn>, DbError> {
        let mut deployed = Vec::with_capacity(schema.columns.len());
        for spec in &schema.columns {
            let column = table.column(&spec.name)?;
            let params = BuildParams {
                table_name: schema.name.clone(),
                col_name: spec.name.clone(),
                bs_max: spec.bs_max,
            };
            let (dict, av) = match spec.choice {
                DictChoice::Encrypted(kind) => {
                    let sk_d = derive_column_key(&self.skdb, &schema.name, &spec.name);
                    build_encrypted(column, kind, &params, &sk_d, rng)?
                }
                DictChoice::Plain => build_plain(column, encdict::EdKind::Ed1, &params, rng)?,
            };
            deployed.push(DeployedColumn { dict, av });
        }
        Ok(deployed)
    }

    /// Steps 3+4 combined: encrypt and deploy a table.
    ///
    /// A schema with range partitioning first splits the plaintext rows by
    /// the partition column ([`split_table`]) and encrypts every shard
    /// separately — each partition gets its own dictionaries, built from
    /// its own value population, so the server can scale scans out across
    /// shards without ever correlating values between them.
    ///
    /// # Errors
    ///
    /// As [`DataOwner::encrypt_table`] and [`DbaasServer::deploy_table`];
    /// [`DbError::ColumnNotFound`] if the partition column is missing from
    /// the plaintext table.
    pub fn deploy<R: Rng + ?Sized>(
        &self,
        server: &DbaasServer,
        table: &Table,
        schema: TableSchema,
        rng: &mut R,
    ) -> Result<(), DbError> {
        match schema.partitioning.clone() {
            None => {
                let columns = self.encrypt_table(table, &schema, rng)?;
                server.deploy_table(schema, columns)
            }
            Some(part) => {
                let shards = split_table(table, &schema, &part)?;
                let mut parts = Vec::with_capacity(shards.len());
                for shard in &shards {
                    parts.push(self.encrypt_table(shard, &schema, rng)?);
                }
                server.deploy_table_partitioned(schema, parts)
            }
        }
    }
}

/// Splits a plaintext table into per-partition tables by the partition
/// column's value — the owner-side half of a partitioned deploy.
///
/// # Errors
///
/// Returns [`DbError::ColumnNotFound`] when the partition column (or any
/// schema column) is missing from the table.
pub fn split_table(
    table: &Table,
    schema: &TableSchema,
    part: &crate::schema::TablePartitioning,
) -> Result<Vec<Table>, DbError> {
    let routing_col = table
        .column(&part.column)
        .map_err(|_| DbError::ColumnNotFound(part.column.clone()))?;
    let assignment: Vec<usize> = routing_col.iter().map(|v| part.partition_of(v)).collect();
    let count = part.partition_count();
    let mut shards: Vec<Table> = (0..count).map(|_| Table::new(table.name())).collect();
    for spec in &schema.columns {
        let source = table.column(&spec.name)?;
        let mut columns: Vec<Column> = (0..count)
            .map(|_| Column::new(&spec.name, spec.max_len))
            .collect();
        for (pid, value) in assignment.iter().zip(source.iter()) {
            columns[*pid].push(value)?;
        }
        for (shard, column) in shards.iter_mut().zip(columns) {
            shard.add_column(column)?;
        }
    }
    Ok(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnSpec;
    use colstore::column::Column;
    use encdict::enclave_ops::DictLogic;
    use encdict::{DictEnclave, EdKind};
    use enclave_sim::attestation::SigningPlatform;
    use enclave_sim::Enclave;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn attested_provisioning_end_to_end() {
        let mut rng = StdRng::seed_from_u64(1);
        let platform = SigningPlatform::generate(&mut rng);
        let service = platform.verification_service();
        let enclave = Enclave::on_platform(DictLogic::with_seed(2), platform);
        // Wrap into the dict enclave facade via a fresh server.
        let server = DbaasServer::with_enclave(DictEnclave::with_seed(3));
        // Recreate: DictEnclave::with_seed builds its own default platform;
        // use the measurement of the logic for expectation checks.
        let expected = enclave.measurement();
        drop(enclave);

        let owner = DataOwner::generate(&mut rng);
        // The default-platform service matches DictEnclave::with_seed.
        let default_service = SigningPlatform::default().verification_service();
        owner
            .provision(&server, &default_service, expected, &mut rng)
            .unwrap();
        // Both instances — query path and compaction — are provisioned.
        assert!(server.enclave().enclave().is_provisioned());
        assert!(server.merge_enclave().enclave().is_provisioned());
        // A service for a *different* platform must reject the quote.
        let server2 = DbaasServer::with_enclave(DictEnclave::with_seed(4));
        let err = owner
            .provision(&server2, &service, expected, &mut rng)
            .unwrap_err();
        assert!(matches!(err, DbError::Enclave(_)));
    }

    #[test]
    fn measurement_mismatch_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let server = DbaasServer::with_enclave(DictEnclave::with_seed(6));
        let owner = DataOwner::generate(&mut rng);
        let service = SigningPlatform::default().verification_service();
        let wrong = Measurement::of(b"malicious-enclave");
        let err = owner
            .provision(&server, &service, wrong, &mut rng)
            .unwrap_err();
        assert_eq!(
            err,
            DbError::Enclave(enclave_sim::EnclaveError::MeasurementMismatch)
        );
    }

    #[test]
    fn encrypt_table_produces_matching_columns() {
        let mut rng = StdRng::seed_from_u64(7);
        let owner = DataOwner::generate(&mut rng);
        let mut table = Table::new("t");
        table
            .add_column(Column::from_strs("a", 8, ["x", "y", "x"]).unwrap())
            .unwrap();
        table
            .add_column(Column::from_strs("b", 8, ["1", "2", "3"]).unwrap())
            .unwrap();
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnSpec::new("a", DictChoice::Encrypted(EdKind::Ed5), 8),
                ColumnSpec::new("b", DictChoice::Plain, 8),
            ],
        );
        let deployed = owner.encrypt_table(&table, &schema, &mut rng).unwrap();
        assert_eq!(deployed.len(), 2);
        let DeployedColumn { dict, av } = &deployed[0];
        assert_eq!(av.len(), 3);
        assert_eq!(dict.kind(), EdKind::Ed5);
        assert_ne!(
            dict.value(0),
            b"x",
            "an encrypted column stores ciphertexts"
        );
        // The PLAIN column is a sorted (ED1) dictionary of its values.
        let DeployedColumn { dict, av } = &deployed[1];
        assert_eq!(av.len(), 3);
        assert_eq!(dict.kind(), EdKind::Ed1);
        let values: Vec<&[u8]> = (0..dict.len()).map(|i| dict.value(i)).collect();
        assert_eq!(values, [b"1", b"2", b"3"]);
    }

    #[test]
    fn missing_column_in_table_fails() {
        let mut rng = StdRng::seed_from_u64(8);
        let owner = DataOwner::generate(&mut rng);
        let table = Table::new("t");
        let schema = TableSchema::new("t", vec![ColumnSpec::new("ghost", DictChoice::Plain, 8)]);
        assert!(owner.encrypt_table(&table, &schema, &mut rng).is_err());
    }
}
